#include "costmodel/evaluation.hpp"

#include <algorithm>
#include <stdexcept>

#include "parallel/superstep.hpp"

namespace mwr::costmodel {

namespace {
// One replication's contribution to a cell, computed independently of every
// other (cell, seed) pair so the sweep can fan out at replication
// granularity.  The seed depends only on the master seed, the kind, the
// replication index, and the instance size — never on scheduling.
struct SeedOutcome {
  double iterations = 0.0;
  double accuracy = 0.0;
  double cpu_iterations = 0.0;
  std::size_t cpus_per_cycle = 0;
  bool converged = false;
};

SeedOutcome run_replication(const datasets::Dataset& dataset,
                            const EvalConfig& config, core::MwuKind kind,
                            std::size_t s) {
  const core::BernoulliOracle oracle(dataset.options);
  core::MwuConfig mwu = config.mwu;
  mwu.num_options = dataset.options.size();
  mwu.max_iterations = config.max_iterations;
  util::RngStream rng(config.master_seed ^
                      (0x9e3779b97f4a7c15ULL * (s + 1)) ^
                      (static_cast<std::uint64_t>(kind) << 40) ^
                      (dataset.options.size() * 0xc2b2ae3dULL));
  const auto result = core::run_mwu(kind, oracle, mwu, std::move(rng));
  SeedOutcome out;
  out.iterations = static_cast<double>(result.iterations);
  out.accuracy = dataset.options.accuracy_percent(result.best_option);
  out.cpu_iterations = static_cast<double>(result.cpu_iterations());
  out.cpus_per_cycle = result.cpus_per_cycle;
  out.converged = result.converged;
  return out;
}
}  // namespace

std::vector<EvalCell> run_evaluation(const EvalConfig& config) {
  const auto suite =
      datasets::standard_suite(config.master_seed, config.max_size);
  constexpr core::MwuKind kColumnOrder[] = {core::MwuKind::kStandard,
                                            core::MwuKind::kDistributed,
                                            core::MwuKind::kSlate};

  // Lay the cells out first (dataset-major, paper column order), then fill
  // them on the engine (inline at one thread).
  std::vector<EvalCell> cells;
  cells.reserve(suite.size() * 3);
  for (const auto& dataset : suite) {
    core::MwuConfig mwu = config.mwu;
    mwu.num_options = dataset.options.size();
    for (const auto kind : kColumnOrder) {
      EvalCell cell;
      cell.family = dataset.family;
      cell.dataset = dataset.options.name();
      cell.size = dataset.options.size();
      cell.kind = kind;
      cell.intractable =
          kind == core::MwuKind::kDistributed &&
          core::distributed_population(mwu) > mwu.max_population;
      cells.push_back(std::move(cell));
    }
  }

  // Fan out at (cell, seed) granularity — config.seeds times more units
  // than cells, so the pool stays busy even when one slow cell (large k,
  // Distributed) dominates a cell-granular split.  Outcomes land in a
  // flat slot array and are folded into the RunningStats serially in
  // (cell, seed) order, so floating-point accumulation order — and hence
  // every reported mean/stddev — is identical to the serial sweep.
  const std::size_t seeds = config.seeds;
  std::vector<SeedOutcome> outcomes(cells.size() * seeds);
  const auto compute = [&](std::size_t unit) {
    const std::size_t index = unit / seeds;
    const EvalCell& cell = cells[index];
    if (cell.intractable) return;
    outcomes[unit] =
        run_replication(suite[index / 3], config, cell.kind, unit % seeds);
  };
  parallel::SuperstepEngine workers(
      1, parallel::SuperstepEngine::Config{
             std::max<std::size_t>(1, config.threads)});
  workers.parallel_for(outcomes.size(), compute);
  for (std::size_t index = 0; index < cells.size(); ++index) {
    EvalCell& cell = cells[index];
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
