// Reproduces Fig 4a: the fraction of mutated programs that still pass the
// regression suite as a function of how many mutations are applied
// together, on the gzip scenario — for precomputed *safe* mutations and,
// for contrast, for untested random mutations.
//
// Paper shape to check (§III-B):
//   - the safe curve decays but stays above 50% even at 80 combined safe
//     mutations;
//   - the untested curve collapses immediately: by two random mutations,
//     more than half of the mutated programs already fail the suite.
//
// Each point averages `trials` independent draws (paper: 1000).
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
  util::Cli cli("bench_fig4a_interaction — Fig 4a, suite pass rate vs "
                "combined mutation count");
  cli.add_flag("full", "paper scale: 1000 trials per point");
  bench::add_seed_flag(cli);
  bench::add_csv_flag(cli);
  cli.add_int("trials", 200, "random draws per point (paper: 1000)");
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

  util::RngStream rng(pool_config.seed ^ 0x4A);
  util::Table table("Fig 4a: fraction passing the suite vs mutations applied "
                    "(" + spec.name + ", " + std::to_string(trials) +
                    " trials/point)");
  table.set_header({"mutations", "safe (pooled)", "untested (random)",
                    "model (1-q)^C(x,2)"});

  const double q = spec.interference();
  for (const std::size_t x : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}, std::size_t{16}, std::size_t{24},
                              std::size_t{32}, std::size_t{48}, std::size_t{64},
                              std::size_t{80}, std::size_t{100},
                              std::size_t{120}}) {
    std::size_t safe_pass = 0;
    std::size_t untested_pass = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      const auto pooled = apr::sample_from_pool(pool.mutations(), x, rng);
      const auto safe_eval = oracle.evaluate(pooled);
      if (safe_eval.required_passed == safe_eval.required_total) ++safe_pass;
      const auto random = apr::random_patch(program, x, rng);
      const auto random_eval = oracle.evaluate(random);
      if (random_eval.required_passed == random_eval.required_total)
        ++untested_pass;
    }
    table.add_row(
        {std::to_string(x),
         util::fmt_fixed(100.0 * static_cast<double>(safe_pass) /
                             static_cast<double>(trials),
                         1) + "%",
         util::fmt_fixed(100.0 * static_cast<double>(untested_pass) /
                             static_cast<double>(trials),
                         1) + "%",
         util::fmt_fixed(
             100.0 * datasets::pass_probability(static_cast<double>(x), q),
             1) + "%"});
  }
  table.emit(std::cout, cli.get_string("csv"));
  std::cout << "pool: " << pool.size() << " safe mutations from "
            << pool.attempts() << " candidates; interference q = " << q
            << "\n(" << timer.elapsed_seconds() << "s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mwr::bench::guarded_main("bench_fig4a_interaction", run, argc, argv);
}
