// The §III-C amortization claim, quantified: repairing a *sequence* of
// bugs in one program with a single precomputed pool vs paying phase 1
// again for every bug.
//
// Shape to check: with the shared pool, per-bug cost collapses to
// (incremental maintenance + online search); the one-time precompute is
// spread across the campaign, so the amortized per-bug cost falls as the
// bug count grows, while the rebuild-every-time strategy pays the full
// phase-1 price per bug.
#include <iostream>

#include "apr/campaign.hpp"
#include "bench_common.hpp"
#include "datasets/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace mwr;
  util::Cli cli("bench_amortization — Section III-C: pool reuse across a "
                "program's bug sequence");
  util::add_standard_bench_flags(cli);
  cli.add_int("bugs", 6, "defects to repair in sequence");
  cli.add_string("scenario", "gzip-2009-08-16", "program to run the campaign on");
  if (!cli.parse(argc, argv)) return 0;

  util::WallTimer timer;
  const auto spec = datasets::scenario_by_name(cli.get_string("scenario"));
  apr::CampaignConfig config;
  config.bugs = static_cast<std::size_t>(cli.get_int("bugs"));
  config.pool.target_size = 4000;
  config.pool.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  config.repair.agents = 64;
  config.repair.max_iterations = 150;
  config.repair.seed = config.pool.seed ^ 0xCAFE;

  const auto campaign = apr::run_campaign(spec, config);

  util::Table per_bug("Campaign on " + spec.name + ": per-bug ledger "
                      "(pool precomputed once: " +
                      std::to_string(campaign.precompute_runs) +
                      " suite runs, " +
                      std::to_string(campaign.initial_pool_size) +
                      " safe mutations)");
  per_bug.set_header({"bug", "repaired", "maintenance runs", "pool dropped",
                      "pool size", "online probes", "per-bug total"});
  for (const auto& bug : campaign.bugs) {
    per_bug.add_row({std::to_string(bug.bug_id),
                     bug.repaired ? "yes" : "no",
                     std::to_string(bug.maintenance_runs),
                     std::to_string(bug.pool_dropped),
                     std::to_string(bug.pool_size),
                     std::to_string(bug.online_probes),
                     std::to_string(bug.suite_runs())});
  }
  per_bug.emit(std::cout, cli.get_string("csv"));

  // The rebuild-every-time strategy pays phase 1 per bug.
  const double rebuild_per_bug =
      static_cast<double>(campaign.precompute_runs) +
      campaign.mean_bug_cost();
  std::cout << "repaired " << campaign.repaired() << "/"
            << campaign.bugs.size() << " bugs\n"
            << "amortized per-bug cost (shared pool): "
            << util::fmt_fixed(campaign.amortized_bug_cost(), 0)
            << " suite runs\n"
            << "per-bug cost rebuilding the pool for every bug: "
            << util::fmt_fixed(rebuild_per_bug, 0) << " suite runs ("
            << util::fmt_fixed(rebuild_per_bug /
                                   std::max(campaign.amortized_bug_cost(), 1.0),
                               1)
            << "x more)\n"
            << "(" << timer.elapsed_seconds() << "s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mwr::bench::guarded_main("bench_amortization", run, argc, argv);
}
