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
#include "bench_common.hpp"
#include "core/slate_mwu.hpp"
#include "datasets/distributions.hpp"

namespace {

using namespace mwr;

int run(int argc, char** argv) {
  util::Cli cli("bench_sensitivity — parameter sweeps (Section VI future "
                "work)");
  cli.add_int("seeds", 5, "replications per setting");
  bench::add_seed_flag(cli);
  bench::add_csv_flag(cli);
  cli.add_int("threads", 4, "worker threads the replications fan out over");
  cli.add_int("options", 128, "option-set size k");
  if (!cli.parse(argc, argv)) return 0;

  util::WallTimer timer;
  const auto k = static_cast<std::size_t>(cli.get_int("options"));
  const auto seeds = static_cast<std::size_t>(cli.get_int("seeds"));
  const auto master_seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto threads = static_cast<std::size_t>(cli.get_int("threads"));
  const auto options = datasets::make_unimodal(k, 23);
  const auto measure = [&](core::MwuKind kind, const core::MwuConfig& config) {
    return costmodel::run_sweep(
        {{&options, kind, config}}, seeds,
        [master_seed](const costmodel::SweepCell&, std::size_t s) {
          return master_seed + 977 * s;
        },
        threads)[0];
  };

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
    const auto standard = measure(core::MwuKind::kStandard, config);
    const auto slate = measure(core::MwuKind::kSlate, config);
    eta_table.add_row({util::fmt_fixed(eta, 3),
                       util::fmt_fixed(standard.iterations.mean(), 0),
                       util::fmt_fixed(standard.accuracy.mean(), 1),
                       util::fmt_fixed(slate.iterations.mean(), 0),
                       util::fmt_fixed(slate.accuracy.mean(), 1)});
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
    const auto distributed = measure(core::MwuKind::kDistributed, config);
    const auto slate = measure(core::MwuKind::kSlate, config);
    explore_table.add_row(
        {util::fmt_fixed(explore, 2),
         util::fmt_fixed(distributed.iterations.mean(), 0),
         util::fmt_fixed(distributed.accuracy.mean(), 1),
         util::fmt_fixed(slate.iterations.mean(), 0),
         util::fmt_fixed(slate.accuracy.mean(), 1),
         std::to_string(core::SlateMwu::slate_size_for(k, explore))});
  }
  explore_table.emit(std::cout);

  // --- beta sweep (Distributed's attention to the latest observation).
  util::Table beta_table("Sensitivity: Distributed beta (adopt-on-success)");
  beta_table.set_header({"beta", "cycles", "acc%", "converged"});
  for (const double beta : {0.55, 0.65, 0.75, 0.85, 0.95}) {
    core::MwuConfig config;
    config.num_options = k;
    config.adopt_success = beta;
    const auto cell = measure(core::MwuKind::kDistributed, config);
    beta_table.add_row({util::fmt_fixed(beta, 2),
                        util::fmt_fixed(cell.iterations.mean(), 0),
                        util::fmt_fixed(cell.accuracy.mean(), 1),
                        std::to_string(cell.converged_runs) + "/" +
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
