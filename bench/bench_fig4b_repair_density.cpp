// Reproduces Fig 4b: the density of repairs as a function of how many safe
// mutations are combined — the unimodal curve whose mode MWRepair's bandit
// hunts.
//
// Paper shape to check (§III-B):
//   - the curve is unimodal: repair probability rises while combining more
//     mutations buys more chances, then falls as pairwise interference
//     outweighs the gain;
//   - the gzip optimum sits near 48 combined mutations;
//   - across programs the optimum ranges roughly 11..271 (we sweep all ten
//     scenarios' calibrated optima).
#include <iostream>

#include "apr/mutation_pool.hpp"
#include "apr/test_oracle.hpp"
#include "bench_common.hpp"
#include "datasets/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace mwr;
  util::Cli cli("bench_fig4b_repair_density — Fig 4b, repair density vs "
                "combined safe mutations");
  cli.add_flag("full", "paper scale: 1000 trials per point");
  bench::add_seed_flag(cli);
  bench::add_csv_flag(cli);
  cli.add_int("trials", 400, "random draws per point (paper: 1000)");
  cli.add_string("scenario", "gzip-2009-08-16", "bug scenario to profile");
  if (!cli.parse(argc, argv)) return 0;

  util::WallTimer timer;
  const auto trials = static_cast<std::size_t>(
      cli.get_flag("full") ? 1000 : cli.get_int("trials"));
  const auto spec = datasets::scenario_by_name(cli.get_string("scenario"));
  const apr::ProgramModel program(spec);
  const apr::TestOracle oracle(program);

  apr::PoolConfig pool_config;
  pool_config.target_size = 4000;
  pool_config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto pool = apr::MutationPool::precompute(oracle, pool_config);
  oracle.prime_cache(pool.mutations());

  util::RngStream rng(pool_config.seed ^ 0x4B);
  const double q = spec.interference();

  util::Table curve("Fig 4b: repair density vs combined safe mutations (" +
                    spec.name + ", " + std::to_string(trials) +
                    " trials/point)");
  curve.set_header({"mutations", "measured repairs/probe",
                    "model (1-(1-p)^x)(1-q)^C(x,2)"});
  std::size_t best_x = 1;
  double best_density = -1.0;
  for (std::size_t x = 4; x <= 3 * spec.optimum + 16; x += 4) {
    std::size_t repairs = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      const auto patch = apr::sample_from_pool(pool.mutations(), x, rng);
      if (oracle.evaluate(patch).is_repair()) ++repairs;
    }
    const double density =
        static_cast<double>(repairs) / static_cast<double>(trials);
    if (density > best_density) {
      best_density = density;
      best_x = x;
    }
    curve.add_row({std::to_string(x), util::fmt_fixed(100.0 * density, 2) + "%",
                   util::fmt_fixed(
                       100.0 * datasets::repair_density(
                                   static_cast<double>(x), spec.repair_rate, q),
                       2) + "%"});
  }
  curve.emit(std::cout, cli.get_string("csv"));
  std::cout << "measured optimum ~ " << best_x << " mutations (calibrated "
            << spec.optimum << ", paper gzip: 48)\n\n";

  // The cross-program sweep: every scenario's analytic optimum.
  util::Table optima("Fig 4b inset: repair-density optimum per scenario "
                     "(paper range: 11..271)");
  optima.set_header({"Scenario", "Lang", "analytic optimum", "interference q"});
  for (const auto& scenarios :
       {datasets::c_scenarios(), datasets::java_scenarios()}) {
    for (const auto& s : scenarios) {
      optima.add_row({s.name, s.language,
                      std::to_string(datasets::repair_optimum(
                          s.repair_rate, s.interference())),
                      util::fmt_fixed(s.interference(), 6)});
    }
  }
  optima.emit(std::cout);
  std::cout << "(" << timer.elapsed_seconds() << "s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mwr::bench::guarded_main("bench_fig4b_repair_density", run, argc,
                                  argv);
}
