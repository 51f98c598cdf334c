// Reproduces Table III: accuracy of each algorithm's converged choice —
// 100 minus the absolute percent error between the best option in
// hindsight and the converged option's value, mean (sd) over replications.
// Runs that hit the iteration cap report the highest-weight option at the
// limit, as in the paper.
//
// Paper shape to check (§IV-D): every algorithm averages above 90%;
// Standard is consistently the least accurate of the three; Distributed
// and Slate sit in the high 90s.
#include "bench_common.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace mwr;
  util::Cli cli("bench_table3_accuracy — Table III, percent accuracy vs "
                "best-in-hindsight");
  util::add_standard_bench_flags(cli);
  if (!cli.parse(argc, argv)) return 0;

  util::WallTimer timer;
  const auto config = bench::eval_config_from(cli);
  const auto cells = costmodel::run_evaluation(config);

  bench::emit_grouped_table(
      cells, "Table III: accuracy percent (mean (sd))",
      [](const costmodel::EvalCell& cell) -> std::string {
        if (cell.intractable) return "-";
        return util::fmt_mean_sd(cell.accuracy.mean(), cell.accuracy.stddev(),
                                 1);
      },
      cli.get_string("csv"));

  // The headline claim: all three algorithms average above 90%.
  util::RunningStats per_kind[3];
  for (const auto& cell : cells) {
    if (!cell.intractable)
      per_kind[static_cast<int>(cell.kind)].add(cell.accuracy.mean());
  }
  std::cout << "overall means: Standard "
            << util::fmt_fixed(per_kind[0].mean(), 1) << "%, Slate "
            << util::fmt_fixed(per_kind[1].mean(), 1) << "%, Distributed "
            << util::fmt_fixed(per_kind[2].mean(), 1) << "%\n";
  std::cout << "(" << config.seeds << " seeds/cell, max size "
            << config.max_size << ", " << timer.elapsed_seconds() << "s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mwr::bench::guarded_main("bench_table3_accuracy", run, argc, argv);
}
