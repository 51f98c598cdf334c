#include "core/regret.hpp"

#include <algorithm>
#include <cmath>

namespace mwr::core {

double RegretTrace::at_cycle(std::size_t cycle) const noexcept {
  if (cumulative.empty()) return 0.0;
  const std::size_t index = std::min(cycle, cumulative.size()) -
                            (cycle == 0 ? 0 : 1);
  if (cycle == 0) return 0.0;
  return cumulative[index];
}

RegretTrace run_mwu_with_regret(MwuKind kind, const OptionSet& options,
                                const MwuConfig& config, util::RngStream rng) {
  RegretTrace trace;
  const BernoulliOracle oracle(options);
  const double best = options.best_value();
  double cumulative = 0.0;
  trace.result = run_mwu(
      kind, oracle, config, std::move(rng),
      [&](std::span<const std::size_t> probes, std::span<const double>,
          const MwuStrategy& strategy) {
        for (const std::size_t probe : probes) {
          cumulative += best - options.value(probe);
        }
        trace.cumulative.push_back(cumulative);
        const auto p = strategy.probabilities();
        trace.max_probability.push_back(*std::max_element(p.begin(), p.end()));
      });
  trace.probes_per_cycle = trace.result.cpus_per_cycle;
  return trace;
}

double adversarial_regret_bound(double probes, std::size_t num_options,
                                double constant) {
  const auto k = static_cast<double>(num_options);
  return constant * std::sqrt(std::max(0.0, probes) * k * std::log(k));
}

}  // namespace mwr::core
