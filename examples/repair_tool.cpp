// mwrepair as a command-line tool: pick any named scenario (or all of
// them), choose the MWU backend and budgets, and get a repair report —
// the shape a downstream user would wire into their CI.
//
//   ./build/examples/repair_tool --scenario Closure13 --mwu standard
//   ./build/examples/repair_tool --all --pool 4000 --agents 32
//   ./build/examples/repair_tool --scenario gzip-2009-08-16 --campaign 5
//       (multi-bug campaign with pool reuse)
#include <iostream>

#include "apr/campaign.hpp"
#include "apr/outcome_json.hpp"
#include "datasets/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace mwr;

core::MwuKind parse_mwu(const std::string& name) {
  if (name == "standard") return core::MwuKind::kStandard;
  if (name == "slate") return core::MwuKind::kSlate;
  if (name == "distributed") return core::MwuKind::kDistributed;
  if (name == "exp3") return core::MwuKind::kExp3;
  throw std::invalid_argument(
      "--mwu must be standard|slate|distributed|exp3, got: " + name);
}

// A single-shot repair is a one-bug campaign.  Per-scenario seeds derive
// from the master seed the way the IV-G harness does, so the CLI
// reproduces the bench's outcomes.
[[nodiscard]] apr::CampaignOutcome repair_one(
    const datasets::ScenarioSpec& spec, apr::CampaignConfig config,
    std::uint64_t master, util::Table& table) {
  util::WallTimer timer;
  config.bugs = 1;
  config.pool.seed = master ^ spec.seed;
  config.repair.seed = master ^ (spec.seed * 3);
  auto outcome = apr::run_campaign(spec, config);
  const apr::BugOutcome& bug = outcome.bugs.front();
  table.add_row(
      {spec.name, spec.language, bug.repaired ? "yes" : "no",
       std::to_string(outcome.initial_pool_size),
       std::to_string(outcome.precompute_runs),
       std::to_string(bug.online_probes), std::to_string(bug.online_cycles),
       std::to_string(bug.patch_edits),
       util::fmt_fixed(timer.elapsed_seconds(), 2) + "s"});
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mwr;
  util::Cli cli("repair_tool — run MWRepair on the paper's bug scenarios");
  cli.add_string("scenario", "units", "scenario name (see DESIGN.md)");
  cli.add_flag("all", "run every C and Java scenario");
  cli.add_string("mwu", "standard", "MWU backend: standard|slate|distributed|exp3");
  cli.add_int("pool", 12000, "safe-mutation pool size (phase 1)");
  cli.add_int("agents", 64, "parallel probes per cycle (phase 2)");
  cli.add_int("iterations", 160, "online iteration cap");
  cli.add_int("eval-threads", 4, "threads for probe evaluation");
  cli.add_int("campaign", 0, "repair N sequential bugs with one shared pool");
  cli.add_int("seed", 20210525, "master seed");
  cli.add_string("outcome-out", "",
                 "write the run's mwr-campaign-outcome-v1 JSON here (the "
                 "same document the campaign server serves as the result)");
  util::add_metrics_flag(cli);
  if (!cli.parse(argc, argv)) return 0;
  const std::string outcome_out = cli.get_string("outcome-out");
  if (!outcome_out.empty() && cli.get_flag("all")) {
    std::cerr << "--outcome-out documents a single scenario; drop --all\n";
    return 1;
  }

  const std::uint64_t master = static_cast<std::uint64_t>(cli.get_int("seed"));
  apr::CampaignConfig campaign_config;
  campaign_config.pool.target_size =
      static_cast<std::size_t>(cli.get_int("pool"));
  campaign_config.pool.max_attempts = 8 * campaign_config.pool.target_size;
  campaign_config.pool.seed = master;
  apr::MwRepairConfig& repair_config = campaign_config.repair;
  repair_config.mwu = parse_mwu(cli.get_string("mwu"));
  repair_config.agents = static_cast<std::size_t>(cli.get_int("agents"));
  repair_config.max_iterations =
      static_cast<std::size_t>(cli.get_int("iterations"));
  repair_config.eval_threads =
      static_cast<std::size_t>(cli.get_int("eval-threads"));
  repair_config.seed = master ^ 0xBEEF;

  // Campaign mode: a sequence of bugs in one program, one shared pool.
  if (cli.get_int("campaign") > 0) {
    const auto spec = datasets::scenario_by_name(cli.get_string("scenario"));
    campaign_config.bugs = static_cast<std::size_t>(cli.get_int("campaign"));
    const auto campaign = apr::run_campaign(spec, campaign_config);
    util::Table table("Campaign: " + std::to_string(campaign_config.bugs) +
                      " bugs in " + spec.name);
    table.set_header({"bug", "repaired", "maintenance", "online probes",
                      "patch edits"});
    for (const auto& bug : campaign.bugs) {
      table.add_row({std::to_string(bug.bug_id), bug.repaired ? "yes" : "no",
                     std::to_string(bug.maintenance_runs),
                     std::to_string(bug.online_probes),
                     std::to_string(bug.patch_edits)});
    }
    table.emit(std::cout);
    std::cout << "repaired " << campaign.repaired() << "/"
              << campaign.bugs.size() << "; one-time precompute "
              << campaign.precompute_runs << " suite runs; amortized "
              << util::fmt_fixed(campaign.amortized_bug_cost(), 0)
              << " suite runs/bug\n";
    if (!outcome_out.empty())
      apr::write_outcome_json(apr::outcome_to_json(campaign), outcome_out);
    util::write_metrics_if_requested(cli);
    return campaign.repaired() == campaign.bugs.size() ? 0 : 1;
  }

  util::Table table("MWRepair (" + cli.get_string("mwu") + " backend)");
  table.set_header({"scenario", "lang", "repaired", "pool", "precompute",
                    "online probes", "cycles", "patch edits", "time"});
  bool all_repaired = true;
  if (cli.get_flag("all")) {
    for (const auto& family :
         {datasets::c_scenarios(), datasets::java_scenarios()}) {
      for (const auto& spec : family) {
        all_repaired &=
            repair_one(spec, campaign_config, master, table).repaired() == 1;
      }
    }
  } else {
    const auto outcome =
        repair_one(datasets::scenario_by_name(cli.get_string("scenario")),
                   campaign_config, master, table);
    all_repaired = outcome.repaired() == 1;
    if (!outcome_out.empty())
      apr::write_outcome_json(apr::outcome_to_json(outcome, "single"),
                              outcome_out);
  }
  table.emit(std::cout);
  util::write_metrics_if_requested(cli);
  return all_repaired ? 0 : 1;
}
