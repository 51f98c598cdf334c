#include "core/standard_mwu.hpp"

#include <stdexcept>

#include "util/simd/weight_kernels.hpp"

namespace mwr::core {

StandardMwu::StandardMwu(const MwuConfig& config) : config_(config) {
  if (config.num_options == 0)
    throw std::invalid_argument("StandardMwu: num_options == 0");
  if (config.num_agents == 0)
    throw std::invalid_argument("StandardMwu: num_agents == 0");
  if (config.learning_rate <= 0.0 || config.learning_rate > 0.5)
    throw std::invalid_argument("StandardMwu: eta must be in (0, 1/2]");
  init();
}

void StandardMwu::init() {
  const std::vector<double> uniform(config_.num_options, 1.0);
  sampler_.rebuild(uniform);
  counts_scratch_.assign(config_.num_options, 0.0);
}

const std::vector<std::size_t>& StandardMwu::sample(util::RngStream& rng) {
  // O(log k) per draw instead of the O(k) linear scan; the sampler tracks
  // the weights exactly, so the draw distribution is unchanged.
  probes_.resize(config_.num_agents);
  for (auto& option : probes_) {
    option = sampler_.sample(rng);
  }
  return probes_;
}

void StandardMwu::update(std::span<const std::size_t> options,
                         std::span<const double> rewards,
                         util::RngStream& /*rng*/) {
  if (options.size() != rewards.size())
    throw std::invalid_argument("StandardMwu::update: size mismatch");
  // Accumulate this cycle's rewards sparsely into the persistent scratch
  // (same index order as the historical dense pass), apply, then clear only
  // the touched entries — no O(k) memset per cycle.
  for (std::size_t j = 0; j < options.size(); ++j) {
    counts_scratch_[options[j]] += rewards[j];
  }
  apply_reward_counts(counts_scratch_);
  for (std::size_t j = 0; j < options.size(); ++j) {
    counts_scratch_[options[j]] = 0.0;
  }
}

void StandardMwu::apply_reward_counts(std::span<const double> counts) {
  const std::span<double> w = sampler_.mutable_weights();
  if (counts.size() != w.size())
    throw std::invalid_argument("StandardMwu: counts width != k");
  const auto& kernels = util::simd::active();
  const double growth = 1.0 + config_.learning_rate;
  kernels.pow_update(w.data(), counts.data(), w.size(), growth);
  // Renormalize by the maximum: ratios (hence probabilities) are preserved
  // and the state stays in floating-point range indefinitely.  The divide,
  // total fold, and Fenwick reconstruction are one fused pass.
  const double max_weight = kernels.max_reduce(w.data(), w.size());
  sampler_.rebuild_in_place(max_weight);
}

void StandardMwu::set_weights(std::vector<double> weights) {
  validate_weights(weights, config_.num_options);
  sampler_.rebuild(weights);
}

void StandardMwu::import_state(std::span<const double> state) {
  set_weights(std::vector<double>(state.begin(), state.end()));
}

std::vector<double> StandardMwu::probabilities() const {
  const std::vector<double>& w = sampler_.raw_weights();
  std::vector<double> p(w.size());
  util::simd::active().materialize_affine(p.data(), w.data(), w.size(), 1.0,
                                          sampler_.total(), 0.0);
  return p;
}

bool StandardMwu::converged() const {
  const std::vector<double>& w = sampler_.raw_weights();
  const double max_w = util::simd::active().max_reduce(w.data(), w.size());
  // Maximum possible probability is 1 (no exploration floor); the paper's
  // criterion is a 1e-5 tolerance relative to that maximum (§IV-C).
  return max_w / sampler_.total() >= 1.0 - config_.convergence_tol;
}

std::size_t StandardMwu::best_option() const {
  const std::vector<double>& w = sampler_.raw_weights();
  return util::simd::active().argmax(w.data(), w.size());
}

}  // namespace mwr::core
