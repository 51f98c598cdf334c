// Distributed MWU (memoryless social-learning dynamics; paper Fig 3,
// after [12]).
//
// No shared weight vector exists: the distribution over options is encoded
// implicitly in the *popularity* of each option across a population of
// agents (O(1) memory per agent — Table I).  Each cycle every agent either
// samples a uniformly random option (probability mu) or observes the
// current choice of a uniformly random neighbor, evaluates the observed
// option once, and adopts it with probability beta on success or alpha on
// failure.
//
// The population must be large enough for the implicit weight vector to
// resolve k options without diversity collapsing — the paper's
// super-linear population rule (we use ceil(pop_scale * k^pop_exponent))
// is what renders the two largest instances intractable in Tables II-IV.
//
// Convergence is plurality-based: the paper uses 30% of the population
// holding the same choice, "a less demanding threshold, but reflects the
// maximum achievable given the inherent noise of the finite-population
// approximation ... and the probability of choosing a random option"
// (§IV-C).
#pragma once

#include <cstdint>
#include <vector>

#include "core/mwu.hpp"

namespace mwr::core {

class DistributedMwu final : public MwuStrategy {
 public:
  /// Throws std::invalid_argument on bad parameters and std::length_error
  /// when the required population exceeds config.max_population (callers
  /// that want the paper's "—" cells use distributed_population() to check
  /// first, or run_mwu(kind, ...) which reports `intractable`).
  explicit DistributedMwu(const MwuConfig& config);

  void init() override;
  [[nodiscard]] const std::vector<std::size_t>& sample(
      util::RngStream& rng) override;
  void update(std::span<const std::size_t> options,
              std::span<const double> rewards, util::RngStream& rng) override;
  [[nodiscard]] std::vector<double> probabilities() const override;
  [[nodiscard]] bool converged() const override;
  [[nodiscard]] std::size_t best_option() const override;
  [[nodiscard]] std::size_t cpus_per_cycle() const override {
    return choices_.size();
  }
  [[nodiscard]] MwuKind kind() const override { return MwuKind::kDistributed; }
  /// Each agent's choice, as a double.
  [[nodiscard]] std::vector<double> export_state() const override;
  /// set_choices() over the state vector, after checking that every value
  /// is an integer option index (the vector may come from disk).
  void import_state(std::span<const double> state) override;

  [[nodiscard]] std::size_t population() const noexcept {
    return choices_.size();
  }

  /// Current choice of each agent — exposed for tests and the
  /// message-passing driver.
  [[nodiscard]] const std::vector<std::uint32_t>& choices() const noexcept {
    return choices_;
  }

  /// Replaces every agent's choice (checkpoint restore).  Throws
  /// std::invalid_argument on wrong population size or out-of-range option.
  void set_choices(const std::vector<std::uint32_t>& choices);

 private:
  MwuConfig config_;
  std::vector<std::uint32_t> choices_;       // C_j: agent j's current option
  std::vector<std::uint32_t> popularity_;    // count of agents per option
  std::vector<std::size_t> probes_;          // sample()'s returned buffer
};

}  // namespace mwr::core
