#include "core/distributed_mwu.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/simd/weight_kernels.hpp"

namespace mwr::core {

DistributedMwu::DistributedMwu(const MwuConfig& config) : config_(config) {
  if (config.num_options == 0)
    throw std::invalid_argument("DistributedMwu: num_options == 0");
  if (config.exploration < 0.0 || config.exploration > 1.0)
    throw std::invalid_argument("DistributedMwu: mu must be in [0, 1]");
  if (config.adopt_failure > config.adopt_success)
    throw std::invalid_argument("DistributedMwu: requires alpha <= beta");
  if (config.adopt_success > 1.0 || config.adopt_failure < 0.0)
    throw std::invalid_argument("DistributedMwu: alpha/beta outside [0, 1]");
  const std::size_t pop = distributed_population(config);
  if (pop > config.max_population)
    throw std::length_error("DistributedMwu: population " +
                            std::to_string(pop) + " exceeds max_population");
  choices_.resize(pop);
  popularity_.resize(config.num_options);
  init();
}

void DistributedMwu::init() {
  // Round-robin initialization: each option starts with pop/k holders,
  // matching the paper's Fig 3 initialization loop.
  std::fill(popularity_.begin(), popularity_.end(), 0u);
  for (std::size_t j = 0; j < choices_.size(); ++j) {
    choices_[j] = static_cast<std::uint32_t>(j % config_.num_options);
    ++popularity_[choices_[j]];
  }
}

void DistributedMwu::set_choices(const std::vector<std::uint32_t>& choices) {
  if (choices.size() != choices_.size())
    throw std::invalid_argument("DistributedMwu::set_choices: wrong size");
  for (const auto c : choices) {
    if (c >= config_.num_options)
      throw std::invalid_argument(
          "DistributedMwu::set_choices: option out of range");
  }
  choices_ = choices;
  std::fill(popularity_.begin(), popularity_.end(), 0u);
  for (const auto c : choices_) ++popularity_[c];
}

std::vector<double> DistributedMwu::export_state() const {
  return std::vector<double>(choices_.begin(), choices_.end());
}

void DistributedMwu::import_state(std::span<const double> state) {
  // Range first: casting a double outside [0, 2^32) to uint32_t is
  // undefined behaviour.
  const auto options = static_cast<double>(config_.num_options);
  std::vector<std::uint32_t> choices;
  choices.reserve(state.size());
  for (const double v : state) {
    if (!(v >= 0.0 && v < options) || v != std::floor(v))
      throw std::invalid_argument(
          "import_state: Distributed choice is not an option index");
    choices.push_back(static_cast<std::uint32_t>(v));
  }
  set_choices(choices);
}

const std::vector<std::size_t>& DistributedMwu::sample(
    util::RngStream& stream) {
  probes_.resize(choices_.size());
  // A local copy of the stream (see util/rng.hpp): a probe is a size_t,
  // the generator's state type, so drawing through the reference would
  // reload and store the state around every probe written.
  util::RngStream rng = stream;
  for (auto& option : probes_) {
    if (rng.bernoulli(config_.exploration)) {
      option = rng.uniform_index(config_.num_options);  // random option
    } else {
      const std::size_t neighbor = rng.uniform_index(choices_.size());
      option = choices_[neighbor];  // observe a random neighbor
    }
  }
  stream = rng;
  return probes_;
}

void DistributedMwu::update(std::span<const std::size_t> options,
                            std::span<const double> rewards,
                            util::RngStream& stream) {
  if (options.size() != choices_.size() || rewards.size() != choices_.size())
    throw std::invalid_argument("DistributedMwu::update: size mismatch");
  util::RngStream rng = stream;
  for (std::size_t j = 0; j < choices_.size(); ++j) {
    const bool success = rewards[j] > 0.0;
    const double adopt_probability =
        success ? config_.adopt_success : config_.adopt_failure;
    if (rng.bernoulli(adopt_probability)) {
      --popularity_[choices_[j]];
      choices_[j] = static_cast<std::uint32_t>(options[j]);
      ++popularity_[choices_[j]];
    }
  }
  stream = rng;
}

std::vector<double> DistributedMwu::probabilities() const {
  // Census materialization: p[i] = popularity[i] / population, through the
  // dispatched widening-convert + divide kernel (population < 2^31, so the
  // conversion is exact on both paths).
  std::vector<double> p(popularity_.size());
  util::simd::active().materialize_counts(p.data(), popularity_.data(),
                                          popularity_.size(),
                                          static_cast<double>(choices_.size()));
  return p;
}

bool DistributedMwu::converged() const {
  const auto max_count =
      *std::max_element(popularity_.begin(), popularity_.end());
  return static_cast<double>(max_count) >=
         config_.plurality_threshold * static_cast<double>(choices_.size());
}

std::size_t DistributedMwu::best_option() const {
  return static_cast<std::size_t>(
      std::max_element(popularity_.begin(), popularity_.end()) -
      popularity_.begin());
}

}  // namespace mwr::core
