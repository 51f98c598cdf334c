// Reproduces Table II: mean (sd) update cycles until convergence for each
// MWU algorithm on each dataset of the standard suite.
//
// Paper shape to check (§IV-C):
//   - Standard's cycle count tracks instance size and is consistent across
//     the five Java datasets (same k=100, different value distributions);
//   - Distributed neither dominates nor is dominated by Standard, and its
//     super-linear population renders the largest instances intractable
//     ("—" cells);
//   - Slate is always the most expensive in iterations and does not always
//     converge within the 10000-iteration budget (">= 10000" cells).
#include "bench_common.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace mwr;
  util::Cli cli("bench_table2_convergence — Table II, update cycles to "
                "convergence");
  util::add_standard_bench_flags(cli);
  util::add_metrics_flag(cli);
  if (!cli.parse(argc, argv)) return 0;

  util::WallTimer timer;
  const auto config = bench::eval_config_from(cli);
  const auto cells = costmodel::run_evaluation(config);

  const auto cap = static_cast<double>(config.max_iterations);
  bench::emit_grouped_table(
      cells, "Table II: update cycles until convergence (mean (sd))",
      [cap](const costmodel::EvalCell& cell) -> std::string {
        if (cell.intractable) return "-";
        if (cell.converged_runs == 0) return ">= " + util::fmt_fixed(cap, 0);
        return util::fmt_mean_sd(cell.iterations.mean(),
                                 cell.iterations.stddev(), 1);
      },
      cli.get_string("csv"));
  std::cout << "(" << config.seeds << " seeds/cell, max size "
            << config.max_size << ", " << timer.elapsed_seconds() << "s)\n";
  util::write_metrics_if_requested(cli);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mwr::bench::guarded_main("bench_table2_convergence", run, argc, argv);
}
