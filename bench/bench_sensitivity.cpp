// Parameter-sensitivity sweep — the paper's stated future work (§VI):
// "Future research could characterize the interaction between parameters
// more carefully."
//
// Sweeps the learning rate (eta, Standard/Slate), the exploration
// probability (mu/gamma), and the Distributed attention parameter (beta)
// over grids on a fixed unimodal instance, reporting cycles-to-convergence
// and accuracy per setting.
//
// Shapes worth knowing: larger eta converges faster but less accurately
// (lock-in); gamma trades Slate's cycle count against its accuracy floor;
// beta accelerates Distributed until noise adoption (relative to alpha)
// erodes the plurality.
#include <iostream>

#include "bench_common.hpp"
#include "core/mwu.hpp"
#include "core/slate_mwu.hpp"
#include "datasets/distributions.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace mwr;

struct Cell {
  double cycles = 0.0;
  double accuracy = 0.0;
  std::size_t converged = 0;
};

Cell measure(core::MwuKind kind, const core::MwuConfig& config,
             const core::OptionSet& options, std::size_t seeds,
             std::uint64_t master_seed) {
  const core::BernoulliOracle oracle(options);
  util::RunningStats cycles;
  util::RunningStats accuracy;
  Cell cell;
  for (std::size_t s = 0; s < seeds; ++s) {
    const auto result = core::run_mwu(
        kind, oracle, config, util::RngStream(master_seed + 977 * s));
    cycles.add(static_cast<double>(result.iterations));
    accuracy.add(options.accuracy_percent(result.best_option));
    if (result.converged) ++cell.converged;
  }
  cell.cycles = cycles.mean();
  cell.accuracy = accuracy.mean();
  return cell;
}

int run(int argc, char** argv) {
  using namespace mwr;
  util::Cli cli("bench_sensitivity — parameter sweeps (Section VI future "
                "work)");
  util::add_standard_bench_flags(cli);
  cli.add_int("options", 128, "option-set size k");
  if (!cli.parse(argc, argv)) return 0;

  util::WallTimer timer;
  const auto k = static_cast<std::size_t>(cli.get_int("options"));
  const auto seeds = static_cast<std::size_t>(cli.get_int("seeds"));
  const auto master_seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto options = datasets::make_unimodal(k, 23);

  // --- eta sweep (Standard and Slate).
  util::Table eta_table("Sensitivity: learning rate eta (k=" +
                        std::to_string(k) + ", " + std::to_string(seeds) +
                        " seeds)");
  eta_table.set_header({"eta", "Standard cycles", "Standard acc%",
                        "Slate cycles", "Slate acc%"});
  for (const double eta : {0.01, 0.025, 0.05, 0.1, 0.25, 0.5}) {
    core::MwuConfig config;
    config.num_options = k;
    config.learning_rate = eta;
    const auto standard =
        measure(core::MwuKind::kStandard, config, options, seeds, master_seed);
    const auto slate =
        measure(core::MwuKind::kSlate, config, options, seeds, master_seed);
    eta_table.add_row({util::fmt_fixed(eta, 3),
                       util::fmt_fixed(standard.cycles, 0),
                       util::fmt_fixed(standard.accuracy, 1),
                       util::fmt_fixed(slate.cycles, 0),
                       util::fmt_fixed(slate.accuracy, 1)});
  }
  eta_table.emit(std::cout, cli.get_string("csv"));

  // --- exploration sweep (mu for Distributed, gamma for Slate).
  util::Table explore_table("Sensitivity: exploration mu/gamma");
  explore_table.set_header({"mu=gamma", "Distributed cycles",
                            "Distributed acc%", "Slate cycles", "Slate acc%",
                            "Slate CPUs"});
  for (const double explore : {0.01, 0.02, 0.05, 0.1, 0.2}) {
    core::MwuConfig config;
    config.num_options = k;
    config.exploration = explore;
    const auto distributed = measure(core::MwuKind::kDistributed, config,
                                     options, seeds, master_seed);
    const auto slate =
        measure(core::MwuKind::kSlate, config, options, seeds, master_seed);
    core::MwuConfig slate_config = config;
    explore_table.add_row(
        {util::fmt_fixed(explore, 2), util::fmt_fixed(distributed.cycles, 0),
         util::fmt_fixed(distributed.accuracy, 1),
         util::fmt_fixed(slate.cycles, 0), util::fmt_fixed(slate.accuracy, 1),
         std::to_string(
             core::SlateMwu::slate_size_for(k, slate_config.exploration))});
  }
  explore_table.emit(std::cout);

  // --- beta sweep (Distributed's attention to the latest observation).
  util::Table beta_table("Sensitivity: Distributed beta (adopt-on-success)");
  beta_table.set_header({"beta", "cycles", "acc%", "converged"});
  for (const double beta : {0.55, 0.65, 0.75, 0.85, 0.95}) {
    core::MwuConfig config;
    config.num_options = k;
    config.adopt_success = beta;
    const auto cell = measure(core::MwuKind::kDistributed, config, options,
                              seeds, master_seed);
    beta_table.add_row({util::fmt_fixed(beta, 2),
                        util::fmt_fixed(cell.cycles, 0),
                        util::fmt_fixed(cell.accuracy, 1),
                        std::to_string(cell.converged) + "/" +
                            std::to_string(seeds)});
  }
  beta_table.emit(std::cout);
  std::cout << "(" << timer.elapsed_seconds() << "s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mwr::bench::guarded_main("bench_sensitivity", run, argc, argv);
}
