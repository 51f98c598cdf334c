// Reproduces Tables II, III and IV — the paper's three measures of one set
// of runs — from one run_evaluation sweep: every MWU algorithm on every
// dataset of the standard suite.
//
// Table II, mean (sd) update cycles until convergence.  A cell where only
// c of the n runs converged adds "c/n"; the mean then counts the capped
// runs at the cap.  Paper shape to check (§IV-C):
//   - Standard's cycle count tracks instance size and is consistent across
//     the five Java datasets (same k=100, different value distributions);
//   - Distributed neither dominates nor is dominated by Standard, and its
//     super-linear population renders the largest instances intractable
//     ("-" cells);
//   - Slate is always the most expensive in iterations and does not always
//     converge within the 10000-iteration budget (">= 10000" cells).
//
// Table III, accuracy of each algorithm's converged choice: 100 minus the
// absolute percent error between the best option in hindsight and the
// converged option's value.  Runs that hit the iteration cap report the
// highest-weight option at the limit, as in the paper.  Paper shape
// (§IV-D): every algorithm averages above 90%; Standard is consistently
// the least accurate of the three; Distributed and Slate sit in the high
// 90s.
//
// Table IV, cost in CPU-iterations: update cycles multiplied by the CPUs
// each cycle occupies (Standard: its n agents; Slate: the slate size,
// which gamma ties to k; Distributed: the whole population).  Paper shape
// (§IV-F): Distributed often needs the fewest cycles but the most
// CPU-iterations; Slate, prohibitive by cycle count, is sometimes more
// CPU-efficient than Distributed.
#include "bench_common.hpp"

namespace {

using namespace mwr;
using costmodel::EvalCell;

std::string cycles_text(const EvalCell& cell, std::size_t cap) {
  if (cell.intractable) return "-";
  const std::size_t runs = cell.iterations.count();
  if (cell.converged_runs == 0) return ">= " + std::to_string(cap);
  std::string text = util::fmt_mean_sd(cell.iterations.mean(),
                                       cell.iterations.stddev(), 1);
  if (cell.converged_runs < runs) {
    text.append(" ").append(std::to_string(cell.converged_runs));
    text.append("/").append(std::to_string(runs));
  }
  return text;
}

std::string accuracy_text(const EvalCell& cell) {
  if (cell.intractable) return "-";
  return util::fmt_mean_sd(cell.accuracy.mean(), cell.accuracy.stddev(), 1);
}

std::string cpu_cost_text(const EvalCell& cell) {
  if (cell.intractable) return "-";
  return util::fmt_fixed(cell.cpu_iterations.mean(), 0) + " (n=" +
         std::to_string(cell.cpus_per_cycle) + ")";
}

int run(int argc, char** argv) {
  util::Cli cli("bench_tables — Tables II, III and IV from one sweep");
  bench::add_sweep_flags(cli);
  cli.add_string("csv", "",
                 "also write every cell as one long-form CSV to this path");
  util::add_metrics_flag(cli);
  if (!cli.parse(argc, argv)) return 0;

  util::WallTimer timer;
  const auto config = bench::eval_config_from(cli);
  const auto cells = costmodel::run_evaluation(config);
  const auto cycles = [&config](const EvalCell& cell) {
    return cycles_text(cell, config.max_iterations);
  };

  bench::emit_grouped_table(
      cells, "Table II: update cycles until convergence (mean (sd))", cycles);
  bench::emit_grouped_table(cells, "Table III: accuracy percent (mean (sd))",
                            accuracy_text);
  // Table III's headline claim: all three algorithms average above 90%.
  util::RunningStats per_kind[3];
  for (const auto& cell : cells) {
    if (!cell.intractable)
      per_kind[static_cast<int>(cell.kind)].add(cell.accuracy.mean());
  }
  std::cout << "overall means: Standard "
            << util::fmt_fixed(per_kind[0].mean(), 1) << "%, Slate "
            << util::fmt_fixed(per_kind[1].mean(), 1) << "%, Distributed "
            << util::fmt_fixed(per_kind[2].mean(), 1) << "%\n";
  bench::emit_grouped_table(cells, "Table IV: CPU-iteration cost (mean)",
                            cpu_cost_text);

  if (const std::string& path = cli.get_string("csv"); !path.empty()) {
    util::Table long_form("Tables II-IV");
    long_form.set_header({"Family", "Scenario", "Size", "Algorithm",
                          "Table II cycles", "Table III accuracy %",
                          "Table IV CPU-iterations"});
    for (const auto& cell : cells) {
      long_form.add_row({cell.family, cell.dataset, std::to_string(cell.size),
                         core::to_string(cell.kind), cycles(cell),
                         accuracy_text(cell), cpu_cost_text(cell)});
    }
    long_form.write_csv(path);
  }
  std::cout << "(" << config.seeds << " seeds/cell, max size "
            << config.max_size << ", " << timer.elapsed_seconds() << "s)\n";
  util::write_metrics_if_requested(cli);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mwr::bench::guarded_main("bench_tables", run, argc, argv);
}
