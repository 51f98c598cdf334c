#include "core/mwu.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "core/distributed_mwu.hpp"
#include "core/exp3_mwu.hpp"
#include "core/slate_mwu.hpp"
#include "core/standard_mwu.hpp"
#include "obs/registry.hpp"

namespace mwr::core {

std::string to_string(MwuKind kind) {
  switch (kind) {
    case MwuKind::kStandard:
      return "Standard";
    case MwuKind::kSlate:
      return "Slate";
    case MwuKind::kDistributed:
      return "Distributed";
    case MwuKind::kExp3:
      return "Exp3";
  }
  return "?";
}

std::size_t distributed_population(const MwuConfig& config) {
  const auto k = static_cast<double>(config.num_options);
  const double pop =
      std::ceil(config.pop_scale * std::pow(k, config.pop_exponent));
  // The population can never be smaller than the option set (the implicit
  // weight vector needs at least one holder per option at initialization).
  return std::max(config.num_options,
                  static_cast<std::size_t>(pop));
}

double validate_weights(std::span<const double> weights,
                        std::size_t options) {
  if (weights.size() != options)
    throw std::invalid_argument("set_weights: wrong width");
  double total = 0.0;
  for (const double w : weights) {
    if (!(w >= 0.0))
      throw std::invalid_argument("set_weights: negative weight");
    if (!std::isfinite(w))
      throw std::invalid_argument("set_weights: non-finite weight");
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument("set_weights: zero total");
  return total;
}

std::unique_ptr<MwuStrategy> make_mwu(MwuKind kind, const MwuConfig& config) {
  switch (kind) {
    case MwuKind::kStandard:
      return std::make_unique<StandardMwu>(config);
    case MwuKind::kSlate:
      return std::make_unique<SlateMwu>(config);
    case MwuKind::kDistributed:
      return std::make_unique<DistributedMwu>(config);
    case MwuKind::kExp3:
      return std::make_unique<Exp3Mwu>(config);
  }
  throw std::invalid_argument("make_mwu: unknown kind");
}

MwuResult run_mwu(MwuStrategy& strategy, const CostOracle& oracle,
                  const MwuConfig& config, util::RngStream rng,
                  const CycleObserver& on_cycle) {
  if (oracle.num_options() != config.num_options)
    throw std::invalid_argument("run_mwu: oracle/config option count mismatch");
  MwuResult result;
  result.cpus_per_cycle = strategy.cpus_per_cycle();

  // Table II counts cycles, Table IV multiplies by cpus_per_cycle; the
  // run driver is where both quantities are born, so it reports them.
  auto& metrics = obs::MetricsRegistry::global();
  obs::Counter& cycle_counter = metrics.counter("mwu.cycles");
  obs::Counter& probe_counter = metrics.counter("mwu.probes");
  obs::Histogram& cycle_seconds = metrics.histogram("mwu.cycle_seconds");

  // The registry is shared by every thread running an MWU, so the cycle
  // telemetry is flushed once per batch of cycles, and a cycle touches no
  // cache line another thread writes.
  constexpr std::size_t kFlushCycles = 256;
  std::array<double, kFlushCycles> pending_seconds{};
  std::size_t pending_cycles = 0;
  std::uint64_t pending_probes = 0;
  const auto flush = [&] {
    cycle_seconds.observe(
        std::span<const double>(pending_seconds.data(), pending_cycles));
    cycle_counter.add(pending_cycles);
    probe_counter.add(pending_probes);
    pending_cycles = 0;
    pending_probes = 0;
  };

  std::vector<double> rewards;
  for (std::size_t t = 0; t < config.max_iterations; ++t) {
    // Cancelled, the timer is a plain stopwatch (the one clock core may
    // read); the cycle's time goes into the pending batch.
    obs::ScopedTimer cycle_timer(cycle_seconds);
    cycle_timer.cancel();
    const auto& probes = strategy.sample(rng);
    rewards.resize(probes.size());
    oracle.sample_batch(probes, rewards, rng);
    strategy.update(probes, rewards, rng);
    if (on_cycle) on_cycle(probes, rewards, strategy);
    ++result.iterations;
    pending_probes += probes.size();
    result.converged = strategy.converged();
    pending_seconds[pending_cycles++] = cycle_timer.elapsed_seconds();
    if (pending_cycles == kFlushCycles) flush();
    if (result.converged) break;
  }
  flush();
  result.best_option = strategy.best_option();
  result.probabilities = strategy.probabilities();
  // Every cycle probes cpus_per_cycle() options, one evaluation each.
  result.evaluations = result.cpu_iterations();
  metrics.gauge("mwu.converged").set(result.converged ? 1.0 : 0.0);
  metrics.gauge("mwu.cpu_iterations").set(
      static_cast<double>(result.cpu_iterations()));
  return result;
}

MwuResult run_mwu(MwuKind kind, const CostOracle& oracle,
                  const MwuConfig& config, util::RngStream rng,
                  const CycleObserver& on_cycle) {
  if (kind == MwuKind::kDistributed &&
      distributed_population(config) > config.max_population) {
    MwuResult result;
    result.intractable = true;
    result.cpus_per_cycle = distributed_population(config);
    return result;
  }
  const auto strategy = make_mwu(kind, config);
  return run_mwu(*strategy, oracle, config, std::move(rng), on_cycle);
}

}  // namespace mwr::core
