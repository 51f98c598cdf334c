// Convergence trajectories: the §IV-C convergence signal — the probability
// of the highest-weight option at each time step — traced per realization.
//
// Shape to check: Standard's p_max climbs monotonically toward 1 and
// crosses its 1 - 1e-5 criterion; Slate and Exp3 climb toward their gamma
// ceilings (1 - gamma + gamma/k) and can go no higher; Distributed's
// plurality share grows fast but stays noisy (finite population + random
// exploration), which is why the paper gives it the laxer 30% criterion.
#include <iostream>

#include "bench_common.hpp"
#include "core/regret.hpp"
#include "core/slate_mwu.hpp"
#include "datasets/distributions.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace mwr;
  util::Cli cli("bench_convergence_trace — Section IV-C: p_max per cycle");
  util::add_standard_bench_flags(cli);
  cli.add_int("options", 64, "option-set size k");
  cli.add_int("cycles", 2000, "horizon to trace");
  if (!cli.parse(argc, argv)) return 0;

  util::WallTimer timer;
  const auto k = static_cast<std::size_t>(cli.get_int("options"));
  const auto options = datasets::make_unimodal(k, 17);

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
    if (traces.back().max_probability.size() < config.max_iterations) {
      std::cerr << "bench_convergence_trace: " << core::to_string(kind)
                << " stopped after " << traces.back().max_probability.size()
                << " of " << config.max_iterations << " cycles\n";
      return 1;
    }
  }

  util::Table table("p_max trajectories on unimodal" + std::to_string(k) +
                    " (gamma ceiling for Slate/Exp3: " +
                    util::fmt_fixed(0.95 + 0.05 / static_cast<double>(k), 4) +
                    ")");
  table.set_header(
      {"cycle", "Standard", "Exp3", "Slate", "Distributed (plurality)"});
  for (const std::size_t cycle :
       {std::size_t{1}, std::size_t{5}, std::size_t{10}, std::size_t{25},
        std::size_t{50}, std::size_t{100}, std::size_t{250}, std::size_t{500},
        std::size_t{1000}, std::size_t{2000}}) {
    if (cycle > config.max_iterations) break;
    std::vector<std::string> row{std::to_string(cycle)};
    for (const auto& trace : traces) {
      row.push_back(util::fmt_fixed(trace.max_probability[cycle - 1], 4));
    }
    table.add_row(std::move(row));
  }
  table.emit(std::cout, cli.get_string("csv"));

  std::cout << "criteria: Standard/Slate converge at p_max within 1e-5 of "
               "their maximum; Distributed at a 30% plurality (paper "
               "Section IV-C)\n"
            << "(" << timer.elapsed_seconds() << "s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mwr::bench::guarded_main("bench_convergence_trace", run, argc, argv);
}
