#include "costmodel/evaluation.hpp"

#include <algorithm>
#include <stdexcept>

#include "parallel/superstep.hpp"

namespace mwr::costmodel {

namespace {
// One replication's contribution to a cell, computed independently of every
// other (cell, seed) pair so the sweep can fan out at replication
// granularity.
struct SeedOutcome {
  double iterations = 0.0;
  double accuracy = 0.0;
  double cpu_iterations = 0.0;
  std::size_t cpus_per_cycle = 0;
  bool converged = false;
};

SeedOutcome run_replication(const SweepCell& cell, std::uint64_t seed) {
  const core::BernoulliOracle oracle(*cell.options);
  const auto result =
      core::run_mwu(cell.kind, oracle, cell.mwu, util::RngStream(seed));
  SeedOutcome out;
  out.iterations = static_cast<double>(result.iterations);
  out.accuracy = cell.options->accuracy_percent(result.best_option);
  out.cpu_iterations = static_cast<double>(result.cpu_iterations());
  out.cpus_per_cycle = result.cpus_per_cycle;
  out.converged = result.converged;
  return out;
}
}  // namespace

std::vector<EvalCell> run_sweep(const std::vector<SweepCell>& cells,
                                std::size_t seeds, const ReplicationSeed& seed,
                                std::size_t threads) {
  // Lay the result cells out first, then fill them on the engine (inline
  // at one thread).
  std::vector<EvalCell> results;
  results.reserve(cells.size());
  for (const SweepCell& cell : cells) {
    if (cell.options == nullptr ||
        cell.mwu.num_options != cell.options->size())
      throw std::invalid_argument(
          "run_sweep: mwu.num_options must equal the option count");
    EvalCell result;
    result.dataset = cell.options->name();
    result.size = cell.options->size();
    result.kind = cell.kind;
    result.intractable =
        cell.kind == core::MwuKind::kDistributed &&
        core::distributed_population(cell.mwu) > cell.mwu.max_population;
    results.push_back(std::move(result));
  }

  // Fan out at (cell, seed) granularity — `seeds` times more units than
  // cells, so the pool stays busy even when one slow cell (large k,
  // Distributed) dominates a cell-granular split.  Outcomes land in a
  // flat slot array and are folded into the RunningStats serially in
  // (cell, seed) order, so floating-point accumulation order — and hence
  // every reported mean/stddev — is identical to the serial sweep.
  std::vector<SeedOutcome> outcomes(cells.size() * seeds);
  const auto compute = [&](std::size_t unit) {
    const std::size_t index = unit / seeds;
    if (results[index].intractable) return;
    const std::size_t s = unit % seeds;
    outcomes[unit] = run_replication(cells[index], seed(cells[index], s));
  };
  parallel::SuperstepEngine workers(
      1, parallel::SuperstepEngine::Config{std::max<std::size_t>(1, threads)});
  workers.parallel_for(outcomes.size(), compute);
  for (std::size_t index = 0; index < results.size(); ++index) {
    EvalCell& cell = results[index];
    if (cell.intractable) continue;
    for (std::size_t s = 0; s < seeds; ++s) {
      const SeedOutcome& out = outcomes[index * seeds + s];
      cell.iterations.add(out.iterations);
      cell.accuracy.add(out.accuracy);
      cell.cpu_iterations.add(out.cpu_iterations);
      cell.cpus_per_cycle = out.cpus_per_cycle;
      if (out.converged) ++cell.converged_runs;
    }
  }
  return results;
}

std::vector<EvalCell> run_evaluation(const EvalConfig& config) {
  const auto suite =
      datasets::standard_suite(config.master_seed, config.max_size);
  constexpr core::MwuKind kColumnOrder[] = {core::MwuKind::kStandard,
                                            core::MwuKind::kDistributed,
                                            core::MwuKind::kSlate};
  std::vector<SweepCell> plan;
  plan.reserve(suite.size() * 3);
  for (const auto& dataset : suite) {
    core::MwuConfig mwu = config.mwu;
    mwu.num_options = dataset.options.size();
    mwu.max_iterations = config.max_iterations;
    for (const auto kind : kColumnOrder)
      plan.push_back({&dataset.options, kind, mwu});
  }
  // The seed depends only on the master seed, the kind, the replication
  // index, and the instance size — never on scheduling.
  auto cells = run_sweep(
      plan, config.seeds,
      [&config](const SweepCell& cell, std::size_t s) {
        return config.master_seed ^ (0x9e3779b97f4a7c15ULL * (s + 1)) ^
               (static_cast<std::uint64_t>(cell.kind) << 40) ^
               (cell.options->size() * 0xc2b2ae3dULL);
      },
      config.threads);
  for (std::size_t index = 0; index < cells.size(); ++index)
    cells[index].family = suite[index / 3].family;
  return cells;
}

const EvalCell& find_cell(const std::vector<EvalCell>& cells,
                          const std::string& dataset, core::MwuKind kind) {
  for (const auto& cell : cells) {
    if (cell.dataset == dataset && cell.kind == kind) return cell;
  }
  throw std::invalid_argument("find_cell: no cell for " + dataset);
}

}  // namespace mwr::costmodel
