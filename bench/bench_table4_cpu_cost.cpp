// Reproduces Table IV: cost in CPU-iterations — update cycles multiplied by
// the CPUs each cycle occupies (Standard: its n agents; Slate: the slate
// size, which gamma ties to k; Distributed: the whole population).
//
// Paper shape to check (§IV-F): Distributed often needs the fewest cycles
// but the most CPU-iterations (population grows super-linearly with k);
// Slate, prohibitive by cycle count, is sometimes more CPU-efficient than
// Distributed; the two largest Distributed cells are intractable.
#include "bench_common.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace mwr;
  util::Cli cli("bench_table4_cpu_cost — Table IV, CPU-iteration cost");
  util::add_standard_bench_flags(cli);
  util::add_metrics_flag(cli);
  if (!cli.parse(argc, argv)) return 0;

  util::WallTimer timer;
  const auto config = bench::eval_config_from(cli);
  const auto cells = costmodel::run_evaluation(config);

  bench::emit_grouped_table(
      cells, "Table IV: CPU-iteration cost (mean)",
      [](const costmodel::EvalCell& cell) -> std::string {
        if (cell.intractable) return "-";
        return util::fmt_fixed(cell.cpu_iterations.mean(), 0) + " (n=" +
               std::to_string(cell.cpus_per_cycle) + ")";
      },
      cli.get_string("csv"));
  std::cout << "(" << config.seeds << " seeds/cell, max size "
            << config.max_size << ", " << timer.elapsed_seconds() << "s)\n";
  util::write_metrics_if_requested(cli);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mwr::bench::guarded_main("bench_table4_cpu_cost", run, argc, argv);
}
