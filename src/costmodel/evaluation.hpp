// The shared experiment harness behind every MWU table: run_sweep runs
// `seeds` replications of an arbitrary list of (option set, algorithm,
// parameters) cells, and run_evaluation is its Tables II-IV caller — every
// algorithm on every dataset, collecting convergence cycles, accuracy, and
// CPU-iteration cost in one pass so the three tables report mutually
// consistent numbers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "costmodel/asymptotics.hpp"
#include "datasets/suite.hpp"
#include "util/stats.hpp"

namespace mwr::costmodel {

struct EvalConfig {
  std::size_t seeds = 10;             ///< replications per cell (paper: 100).
  std::size_t max_size = 1024;        ///< skip larger instances (paper: 16384).
  std::size_t max_iterations = 10000; ///< the paper's iteration cap.
  std::uint64_t master_seed = 20210525;
  core::MwuConfig mwu;                ///< base algorithm parameters (§IV-B).
  /// Worker threads the sweep fans cells out over.  Every replication is
  /// seeded independently of scheduling, so results are identical for any
  /// thread count.
  std::size_t threads = 1;
};

/// One (dataset, algorithm) cell aggregated over the replications.
struct EvalCell {
  std::string family;             ///< random / unimodal / C / Java.
  std::string dataset;
  std::size_t size = 0;           ///< k.
  core::MwuKind kind = core::MwuKind::kStandard;
  bool intractable = false;       ///< Distributed population too large.
  util::RunningStats iterations;  ///< update cycles (capped runs count the cap).
  util::RunningStats accuracy;    ///< Table III metric, percent.
  util::RunningStats cpu_iterations;
  std::size_t cpus_per_cycle = 0;
  std::size_t converged_runs = 0;
};

/// One cell of a sweep: `kind` run with `mwu` against a BernoulliOracle
/// over `*options`, which must outlive the sweep.  `mwu.num_options` must
/// equal the option count.
struct SweepCell {
  const core::OptionSet* options = nullptr;
  core::MwuKind kind = core::MwuKind::kStandard;
  core::MwuConfig mwu;
};

/// Seeds replication `s` of a cell.  It must depend on nothing but its
/// arguments, so that the cells are identical for any thread count.
using ReplicationSeed =
    std::function<std::uint64_t(const SweepCell& cell, std::size_t s)>;

/// Runs `seeds` replications of every cell, fanned out at (cell, seed)
/// granularity over `threads` workers and folded serially in (cell, seed)
/// order, so every mean and stddev is bit-identical to a serial loop of
/// core::run_mwu.  Returns one EvalCell per cell, in order, with `family`
/// left empty.  A Distributed cell whose population exceeds
/// `mwu.max_population` is marked intractable and runs nothing.
[[nodiscard]] std::vector<EvalCell> run_sweep(
    const std::vector<SweepCell>& cells, std::size_t seeds,
    const ReplicationSeed& seed, std::size_t threads);

/// Runs the full sweep: every algorithm on every dataset of the standard
/// suite.  Cells are ordered dataset-major (random, unimodal, C, Java),
/// algorithm-minor (Standard, Distributed, Slate — the paper's column
/// order).
[[nodiscard]] std::vector<EvalCell> run_evaluation(const EvalConfig& config);

/// Convenience lookup into run_evaluation() output.
[[nodiscard]] const EvalCell& find_cell(const std::vector<EvalCell>& cells,
                                        const std::string& dataset,
                                        core::MwuKind kind);

}  // namespace mwr::costmodel
