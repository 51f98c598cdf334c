// Regret curves: the theoretical lens (§II-C) made measurable.
//
// Runs each realization (the paper's three + the Exp3 extension) on a
// random instance with convergence disabled, so every run traces the whole
// horizon, recording cumulative expected regret per probe, and compares
// the growth against the adversarial envelope c * sqrt(t k ln k).
//
// Shape to check (random64, 400 cycles):
//   - Exp3 is concave in t (per-cycle regret falls as the weights learn)
//     and stays under the envelope.
//   - Standard locks in: once all its weight sits on one suboptimal option
//     its regret grows linearly (a constant ~2.6 per 64-probe cycle from
//     cycle 87 on, where its p_max reaches exactly 1).  It is still under
//     the envelope at 400 cycles, but a linear curve crosses a sqrt(t) one
//     eventually.
//   - Slate probes only 3 options per cycle, so its totals are the
//     smallest, and its per-cycle regret is nearly flat: over this horizon
//     it has barely started to learn (it is the slowest variant, Table II).
//   - Distributed pays for its population (892 probes per cycle).  Its
//     per-cycle regret falls about sixfold over the horizon, but its total
//     stays above the envelope, both the printed one at Standard's probe
//     count and the one at its own.
#include <iostream>

#include "bench_common.hpp"
#include "core/regret.hpp"
#include "datasets/distributions.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace mwr;

int run(int argc, char** argv) {
  util::Cli cli("bench_regret — cumulative expected regret per realization");
  bench::add_seed_flag(cli);
  bench::add_csv_flag(cli);
  cli.add_int("options", 64, "option-set size k");
  cli.add_int("cycles", 400, "update cycles to trace");
  if (!cli.parse(argc, argv)) return 0;

  util::WallTimer timer;
  const auto k = static_cast<std::size_t>(cli.get_int("options"));
  const auto options = datasets::make_random(k, 31);

  core::MwuConfig config;
  config.num_options = k;
  config.max_iterations = static_cast<std::size_t>(cli.get_int("cycles"));
  // Trace the full horizon.  A tolerance of 0 does not stop Standard from
  // converging: its p_max reaches exactly 1.0, which passes p >= 1 - 0.  A
  // negative tolerance can never be met.  Distributed has its own
  // plurality test, which a threshold above 1 disables.
  config.convergence_tol = -1.0;
  config.plurality_threshold = 1.1;

  const core::MwuKind kinds[] = {core::MwuKind::kStandard,
                                 core::MwuKind::kExp3, core::MwuKind::kSlate,
                                 core::MwuKind::kDistributed};
  std::vector<core::RegretTrace> traces;
  for (const auto kind : kinds) {
    traces.push_back(core::run_mwu_with_regret(
        kind, options, config,
        util::RngStream(static_cast<std::uint64_t>(cli.get_int("seed")))));
  }

  util::Table table("Cumulative expected regret on random" +
                    std::to_string(k) + " (per cycle checkpoints)");
  table.set_header({"cycles", "Standard", "Exp3", "Slate", "Distributed",
                    "envelope 2*sqrt(t k ln k) @ Standard's t"});
  for (std::size_t cycle : {std::size_t{10}, std::size_t{25}, std::size_t{50},
                            std::size_t{100}, std::size_t{200},
                            std::size_t{400}}) {
    if (cycle > config.max_iterations) break;
    std::vector<std::string> row{std::to_string(cycle)};
    for (const auto& trace : traces) {
      row.push_back(util::fmt_fixed(trace.at_cycle(cycle), 1));
    }
    const double probes =
        static_cast<double>(cycle) *
        static_cast<double>(traces[0].probes_per_cycle);
    row.push_back(
        util::fmt_fixed(core::adversarial_regret_bound(probes, k), 1));
    table.add_row(std::move(row));
  }
  table.emit(std::cout, cli.get_string("csv"));

  std::cout << "probes per cycle: Standard/Exp3 "
            << traces[0].probes_per_cycle << ", Slate "
            << traces[2].probes_per_cycle << ", Distributed "
            << traces[3].probes_per_cycle << "\n"
            << "(" << timer.elapsed_seconds() << "s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mwr::bench::guarded_main("bench_regret", run, argc, argv);
}
