// Ablation D3 (DESIGN.md §5): the reward signal of MWRepair's online phase.
//
// Fig 6 literally rewards fitness non-decrease, but P(pass | x) is monotone
// decreasing in the combination size x, so the literal reward drives MWU to
// the smallest arm — abandoning the batch-efficiency that motivates the
// whole design.  The safe-density proxy (§III-B) rewards in proportion to
// x * P(pass | x) — the expected number of safe mutations a probe
// validates — whose mode tracks the repair-density optimum of Fig 4b.
//
// This bench runs MWRepair under both rewards with early termination
// disabled (so we can see where the bandit actually converges) and reports
// the preferred combination size against the scenario's calibrated optimum,
// plus repairs found per probe under normal (early-terminating) operation.
#include <iostream>

#include "apr/mwrepair.hpp"
#include "bench_common.hpp"
#include "datasets/scenario.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace mwr;
  util::Cli cli("bench_ablation_reward_proxy — D3: literal Fig 6 reward vs "
                "safe-density proxy");
  util::add_standard_bench_flags(cli);
  cli.add_int("trials", 5, "repair trials per configuration");
  if (!cli.parse(argc, argv)) return 0;

  util::WallTimer timer;
  util::Table table("Ablation D3: reward signal (arm the bandit prefers, and "
                    "repair cost)");
  table.set_header({"Scenario", "Reward", "preferred count",
                    "calibrated optimum", "repairs", "mean probes to repair"});

  const auto trials = static_cast<std::size_t>(cli.get_int("trials"));
  for (const auto& name :
       {"gzip-2009-08-16", "units", "Closure22"}) {
    const auto spec = datasets::scenario_by_name(name);
    // Learning dynamics are probed on a no-repair variant of the scenario
    // (the bug is made unreachable), so runs are never cut short by early
    // termination and the bandit's converged preference is visible.
    auto no_repair_spec = spec;
    no_repair_spec.min_repair_edits = 100000;
    const apr::ProgramModel learn_program(no_repair_spec);
    const apr::TestOracle learn_oracle(learn_program);
    const apr::ProgramModel repair_program(spec);
    const apr::TestOracle repair_oracle(repair_program);
    apr::PoolConfig pool_config;
    pool_config.target_size = 2000;
    pool_config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    const auto learn_pool =
        apr::MutationPool::precompute(learn_oracle, pool_config);
    const auto repair_pool =
        apr::MutationPool::precompute(repair_oracle, pool_config);

    for (const auto reward : {apr::RewardMode::kSafeDensityProxy,
                              apr::RewardMode::kFitnessNonDecrease}) {
      std::size_t repaired = 0;
      util::RunningStats probes;
      util::RunningStats preferred;
      for (std::size_t t = 0; t < trials; ++t) {
        apr::MwRepairConfig config;
        config.reward = reward;
        config.agents = 16;
        config.max_iterations = 400;
        config.seed = pool_config.seed ^ (t * 0x2545F4914F6CDD1DULL);
        const apr::MwRepair repair(config);
        const auto learned = repair.run(learn_oracle, learn_pool);
        preferred.add(static_cast<double>(learned.preferred_count));
        const auto outcome = repair.run(repair_oracle, repair_pool);
        if (outcome.repaired) {
          ++repaired;
          probes.add(static_cast<double>(outcome.probes));
        }
      }
      table.add_row(
          {name,
           reward == apr::RewardMode::kSafeDensityProxy ? "density proxy"
                                                        : "literal Fig 6",
           util::fmt_fixed(preferred.mean(), 0), std::to_string(spec.optimum),
           std::to_string(repaired) + "/" + std::to_string(trials),
           probes.count() ? util::fmt_fixed(probes.mean(), 0) : "-"});
    }
    table.add_separator();
  }
  table.emit(std::cout, cli.get_string("csv"));
  std::cout << "(" << timer.elapsed_seconds() << "s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mwr::bench::guarded_main("bench_ablation_reward_proxy", run, argc,
                                  argv);
}
