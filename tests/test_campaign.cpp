// Unit + integration tests for apr/campaign: multi-bug repair with pool
// reuse and incremental suite growth (§III-C amortization).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apr/campaign.hpp"
#include "apr/campaign_session.hpp"
#include "apr/oracle_hub.hpp"
#include "apr/outcome_json.hpp"
#include "datasets/scenario.hpp"
#include "obs/registry.hpp"
#include "obs/serialization.hpp"

namespace mwr::apr {
namespace {

datasets::ScenarioSpec toy_spec() {
  datasets::ScenarioSpec spec;
  spec.name = "campaign-toy";
  spec.statements = 2000;
  spec.tests = 12;
  spec.coverage = 0.7;
  spec.safe_rate = 0.55;
  spec.repair_rate = 0.02;
  spec.optimum = 30;
  spec.min_repair_edits = 1;
  spec.seed = 71;
  return spec;
}

CampaignConfig fast_config() {
  CampaignConfig config;
  config.bugs = 4;
  config.pool.target_size = 1500;
  config.pool.seed = 1;
  config.repair.agents = 32;
  config.repair.max_iterations = 200;
  config.repair.seed = 2;
  return config;
}

TEST(Campaign, RepairsASequenceOfBugsFromOnePool) {
  const auto outcome = run_campaign(toy_spec(), fast_config());
  ASSERT_EQ(outcome.bugs.size(), 4u);
  EXPECT_EQ(outcome.repaired(), 4u);
  EXPECT_GT(outcome.precompute_runs, 0u);
  EXPECT_EQ(outcome.initial_pool_size, 1500u);
}

TEST(Campaign, FirstBugPaysNoMaintenance) {
  const auto outcome = run_campaign(toy_spec(), fast_config());
  EXPECT_EQ(outcome.bugs.front().maintenance_runs, 0u);
  EXPECT_EQ(outcome.bugs.front().pool_dropped, 0u);
  EXPECT_EQ(outcome.bugs.front().pool_size, 1500u);
}

TEST(Campaign, SuiteGrowthDropsPoolMembersIncrementally) {
  const auto outcome = run_campaign(toy_spec(), fast_config());
  // After the first repaired bug the suite has grown, so bug 1 pays a
  // revalidation pass and typically loses a few members.
  ASSERT_GE(outcome.bugs.size(), 2u);
  EXPECT_GT(outcome.bugs[1].maintenance_runs, 0u);
  std::size_t total_dropped = 0;
  for (const auto& bug : outcome.bugs) total_dropped += bug.pool_dropped;
  EXPECT_GT(total_dropped, 0u);
  // Pool sizes are non-increasing across the campaign.
  for (std::size_t i = 1; i < outcome.bugs.size(); ++i) {
    EXPECT_LE(outcome.bugs[i].pool_size, outcome.bugs[i - 1].pool_size);
  }
}

TEST(Campaign, GrowSuiteDisabledSkipsMaintenance) {
  auto config = fast_config();
  config.grow_suite = false;
  const auto outcome = run_campaign(toy_spec(), config);
  for (const auto& bug : outcome.bugs) {
    EXPECT_EQ(bug.maintenance_runs, 0u) << "bug " << bug.bug_id;
    EXPECT_EQ(bug.pool_dropped, 0u);
  }
}

TEST(Campaign, AmortizedCostBeatsRebuildingPerBug) {
  const auto outcome = run_campaign(toy_spec(), fast_config());
  const double rebuild_per_bug =
      static_cast<double>(outcome.precompute_runs) + outcome.mean_bug_cost();
  EXPECT_LT(outcome.amortized_bug_cost(), rebuild_per_bug);
}

TEST(Campaign, CostAccessorsAreConsistent) {
  const auto outcome = run_campaign(toy_spec(), fast_config());
  const double spread = static_cast<double>(outcome.precompute_runs) /
                        static_cast<double>(outcome.bugs.size());
  EXPECT_NEAR(outcome.amortized_bug_cost(),
              outcome.mean_bug_cost() + spread, 1e-9);
}

TEST(Campaign, BugsDifferInTheirRelevanceSets) {
  // Each bug_id re-rolls the repair-relevance draw: a patch that repairs
  // bug 0 does not repair bug 1 (with overwhelming probability), which is
  // what makes the campaign a sequence of distinct searches.
  auto spec0 = toy_spec();
  auto spec1 = toy_spec();
  spec1.bug_id = 1;
  const ProgramModel program0(spec0);
  const ProgramModel program1(spec1);
  const TestOracle oracle0(program0);
  const TestOracle oracle1(program1);
  PoolConfig pool_config;
  pool_config.target_size = 1500;
  pool_config.seed = 1;
  const auto pool = MutationPool::precompute(oracle0, pool_config);
  MwRepairConfig repair_config;
  repair_config.agents = 32;
  repair_config.max_iterations = 200;
  repair_config.seed = 2;
  const MwRepair repair(repair_config);
  const auto outcome = repair.run(oracle0, pool);
  ASSERT_TRUE(outcome.repaired);
  EXPECT_TRUE(oracle0.evaluate(outcome.patch).is_repair());
  EXPECT_FALSE(oracle1.evaluate(outcome.patch).is_repair());
}

TEST(Campaign, DeterministicPerSeeds) {
  const auto a = run_campaign(toy_spec(), fast_config());
  const auto b = run_campaign(toy_spec(), fast_config());
  ASSERT_EQ(a.bugs.size(), b.bugs.size());
  for (std::size_t i = 0; i < a.bugs.size(); ++i) {
    EXPECT_EQ(a.bugs[i].repaired, b.bugs[i].repaired);
    EXPECT_EQ(a.bugs[i].online_probes, b.bugs[i].online_probes);
    EXPECT_EQ(a.bugs[i].pool_dropped, b.bugs[i].pool_dropped);
  }
}

TEST(Campaign, OneBugCampaignMatchesMwRepairRun) {
  // A single repair is a one-bug campaign (repair_tool's single-shot
  // mode); MwRepair::run over a pool the caller precomputed is the
  // research API.  They must run the same search.  The pool holds at
  // least max_count members: below that the campaign clamps max_count
  // to its working pool and the arm grid differs.
  for (const char* name : {"units", "Math8"}) {
    const datasets::ScenarioSpec spec = datasets::scenario_by_name(name);
    for (const core::MwuKind kind :
         {core::MwuKind::kStandard, core::MwuKind::kSlate,
          core::MwuKind::kDistributed, core::MwuKind::kExp3}) {
      CampaignConfig config;
      config.bugs = 1;
      config.pool.target_size = 300;
      config.pool.max_attempts = 8 * config.pool.target_size;
      config.pool.seed = 11 ^ spec.seed;
      config.repair.mwu = kind;
      config.repair.agents = 16;
      config.repair.max_iterations = 60;
      config.repair.seed = 11 ^ (spec.seed * 3);
      ASSERT_GE(config.pool.target_size, config.repair.max_count);

      const CampaignOutcome campaign = run_campaign(spec, config);
      const ProgramModel program(spec);
      const TestOracle oracle(program);
      const MutationPool pool = MutationPool::precompute(oracle, config.pool);
      const RepairOutcome direct = MwRepair(config.repair).run(oracle, pool);

      const std::string label = std::string(name) + " " + core::to_string(kind);
      ASSERT_EQ(campaign.bugs.size(), 1u) << label;
      const BugOutcome& bug = campaign.bugs.front();
      EXPECT_EQ(campaign.precompute_runs, pool.attempts()) << label;
      EXPECT_EQ(campaign.initial_pool_size, pool.size()) << label;
      EXPECT_EQ(bug.pool_size, pool.size()) << label;
      EXPECT_EQ(bug.repaired, direct.repaired) << label;
      EXPECT_EQ(bug.online_probes, direct.probes) << label;
      EXPECT_EQ(bug.online_cycles, direct.iterations) << label;
      EXPECT_EQ(bug.patch_edits, direct.patch.size()) << label;
    }
  }
}

TEST(CampaignSession, FingerprintBytesArePinned) {
  // Checkpoints carry this fingerprint and resume() refuses a mismatch,
  // so the fold over the spec and config must not change its bytes: a
  // spec and config with every field off its default, and the value the
  // fold has always produced for them.
  datasets::ScenarioSpec spec;
  spec.name = "fingerprint-pin";
  spec.language = "Java";
  spec.options = 256;
  spec.statements = 3000;
  spec.tests = 17;
  spec.coverage = 0.65;
  spec.safe_rate = 0.5;
  spec.repair_rate = 0.025;
  spec.optimum = 40;
  spec.min_repair_edits = 2;
  spec.value_noise = 0.03;
  spec.seed = 99;
  spec.bug_id = 3;
  spec.relevance_localized = true;
  CampaignConfig config;
  config.bugs = 6;
  config.grow_suite = false;
  config.pool.target_size = 700;
  config.pool.max_attempts = 9000;
  config.pool.seed = 5;
  config.repair.mwu = core::MwuKind::kSlate;
  config.repair.arms = 12;
  config.repair.max_count = 90;
  config.repair.agents = 24;
  config.repair.max_iterations = 150;
  config.repair.reward = RewardMode::kFitnessNonDecrease;
  config.repair.learning_rate = 0.3;
  config.repair.exploration = 0.2;
  config.repair.seed = 8;
  const CampaignSession session(spec, config);
  EXPECT_EQ(session.fingerprint(), 0xbd6fe347d0fec237ull);
}

TEST(Campaign, ZeroBugCampaignFinalizesInsteadOfRunningForever) {
  // bugs == 0 must reach kDone after precompute: the finish_bug boundary
  // check (`bug_index_ >= bugs`) can never fire for it, so without the
  // kBugStart guard the session marched bug 0, 1, 2, ... forever —
  // pinning a residency slot and wedging a served daemon's drain().
  auto config = fast_config();
  config.bugs = 0;
  CampaignSession session(toy_spec(), config);
  const std::size_t used = session.step(/*budget=*/16);
  EXPECT_TRUE(session.done());
  EXPECT_LE(used, 2u);  // precompute + finalize, nothing else
  EXPECT_TRUE(session.outcome().bugs.empty());
}

TEST(Campaign, SingleShotCampaignsDrawEverythingFromOneHub) {
  // run_campaign draws from the process hub: one pool lookup, and one
  // oracle per bug warmed from a pool of the program.  Whatever an
  // earlier call interned, a repeat call builds nothing, hits once per
  // lookup and gives the same outcome.
  const OracleHub& hub = OracleHub::process();
  const CampaignConfig config = fast_config();
  const OracleHub::Stats before = hub.stats();
  const auto first = run_campaign(toy_spec(), config);
  const OracleHub::Stats middle = hub.stats();
  ASSERT_EQ(first.bugs.size(), config.bugs);
  EXPECT_EQ(middle.pool_builds + middle.pool_hits -
                (before.pool_builds + before.pool_hits),
            1u);
  EXPECT_EQ(middle.oracle_builds + middle.oracle_hits -
                (before.oracle_builds + before.oracle_hits),
            config.bugs);
  EXPECT_EQ(middle.cold_oracle_builds, before.cold_oracle_builds);

  const auto repeat = run_campaign(toy_spec(), config);
  const OracleHub::Stats after = hub.stats();
  EXPECT_EQ(after.pool_builds, middle.pool_builds);
  EXPECT_EQ(after.pool_hits - middle.pool_hits, 1u);
  EXPECT_EQ(after.oracle_builds, middle.oracle_builds);
  EXPECT_EQ(after.oracle_hits - middle.oracle_hits, config.bugs);
  EXPECT_EQ(after.cold_oracle_builds, middle.cold_oracle_builds);
  EXPECT_EQ(outcome_to_json(repeat).dump(2), outcome_to_json(first).dump(2));
}

TEST(Campaign, ResumingWithoutAHubKeepsTheOracleWarm) {
  // A session resumed mid-bug with no hub re-interns its base pool in the
  // process hub, where the reference campaign left it, so the bug's
  // oracle is warm; the trajectory is the uninterrupted campaign's.
  CampaignSession reference(toy_spec(), fast_config());
  while (!reference.done()) (void)reference.step(1 << 20);

  CampaignSession first(toy_spec(), fast_config());
  (void)first.step(4);  // precompute, bug start, two online cycles
  const CampaignSnapshot snapshot = first.snapshot();
  ASSERT_TRUE(snapshot.has_repair_state);

  const OracleHub& hub = OracleHub::process();
  const OracleHub::Stats before = hub.stats();
  const auto resumed =
      CampaignSession::resume(snapshot, toy_spec(), fast_config());
  const OracleHub::Stats reinterned = hub.stats();
  EXPECT_EQ(reinterned.pool_builds, before.pool_builds);
  EXPECT_EQ(reinterned.pool_hits - before.pool_hits, 1u);
  while (!resumed->done()) (void)resumed->step(1 << 20);
  EXPECT_EQ(hub.stats().cold_oracle_builds, before.cold_oracle_builds);
  EXPECT_EQ(resumed->trajectory_hash(), reference.trajectory_hash());
}

TEST(Campaign, RepeatedRunCampaignMatchesAFreshHubOnEveryPaperScenario) {
  // The process hub changes what a campaign pays, never what it finds:
  // on each of the ten C and Java scenarios, run_campaign twice in a row
  // gives the document a session on a fresh hub gives.
  std::vector<datasets::ScenarioSpec> specs = datasets::c_scenarios();
  for (datasets::ScenarioSpec& spec : datasets::java_scenarios())
    specs.push_back(std::move(spec));
  ASSERT_EQ(specs.size(), 10u);
  for (const datasets::ScenarioSpec& spec : specs) {
    CampaignConfig config;
    config.bugs = 2;
    config.pool.target_size = 150;
    config.pool.max_attempts = 8 * config.pool.target_size;
    config.pool.threads = 2;
    config.pool.seed = 11 ^ spec.seed;
    config.repair.agents = 8;
    config.repair.max_iterations = 60;
    config.repair.eval_threads = 2;
    config.repair.seed = 11 ^ (spec.seed * 3);

    OracleHub fresh;
    CampaignSession session(spec, config, &fresh);
    while (!session.done()) (void)session.step(1 << 20);
    const std::string expected = outcome_to_json(session.outcome()).dump(2);
    EXPECT_EQ(outcome_to_json(run_campaign(spec, config)).dump(2), expected)
        << spec.name << " first call";
    EXPECT_EQ(outcome_to_json(run_campaign(spec, config)).dump(2), expected)
        << spec.name << " repeat call";
  }
}

TEST(Campaign, ConcurrentRunCampaignsShareTheProcessHub) {
  // Two threads run the same campaign at once: one builds each pool and
  // oracle while the other waits on or hits it, and both documents are
  // the same.
  const datasets::ScenarioSpec spec = datasets::scenario_by_name("gzip-2009-08-16");
  CampaignConfig config;
  config.bugs = 2;
  config.pool.target_size = 300;
  config.pool.max_attempts = 8 * config.pool.target_size;
  config.pool.threads = 2;
  config.pool.seed = 41;
  config.repair.agents = 16;
  config.repair.max_iterations = 60;
  config.repair.eval_threads = 2;
  config.repair.seed = 43;
  std::array<std::string, 2> documents;
  std::latch start(2);
  std::vector<std::thread> threads;
  for (std::string& document : documents) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      document = outcome_to_json(run_campaign(spec, config)).dump(2);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(documents[0].empty());
  EXPECT_EQ(documents[0], documents[1]);
}

TEST(Campaign, SuiteSizeIsCappedAtTheOracleLimit) {
  auto spec = toy_spec();
  spec.tests = 62;  // two repairs away from the 64-test model cap
  auto config = fast_config();
  config.bugs = 6;
  const auto outcome = run_campaign(spec, config);
  // No bug may crash the oracle; the campaign must complete.
  EXPECT_EQ(outcome.bugs.size(), 6u);
}

TEST(Campaign, MetricsSnapshotIsValidJsonWithNonzeroProbeCounts) {
  // The --metrics-out CLI path end to end: reset the global registry, run
  // a campaign, write the snapshot, and parse it back.  The campaign runs
  // on a fresh hub, so it builds its pool and records phase 1's
  // telemetry whatever the process hub already holds.
  auto& metrics = obs::MetricsRegistry::global();
  metrics.reset();
  OracleHub hub;
  CampaignSession session(toy_spec(), fast_config(), &hub);
  while (!session.done()) (void)session.step(1 << 20);
  const CampaignOutcome& outcome = session.outcome();
  ASSERT_GT(outcome.repaired(), 0u);

  const std::string path = ::testing::TempDir() + "mwr_campaign_metrics.json";
  metrics.write_json(path);
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream buffer;
  buffer << file.rdbuf();
  const auto snapshot = obs::JsonValue::parse(buffer.str());
  std::remove(path.c_str());

  EXPECT_EQ(snapshot.at("schema").as_string(), "mwr-metrics-v1");
  const auto& counters = snapshot.at("counters");
  EXPECT_GT(counters.at("repair.online.probes").as_double(), 0.0);
  EXPECT_GT(counters.at("repair.online.cycles").as_double(), 0.0);
  EXPECT_GT(counters.at("pool.candidates_tried").as_double(), 0.0);
  EXPECT_DOUBLE_EQ(counters.at("serve.hub.pool_builds").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(counters.at("campaign.bugs_attempted").as_double(), 4.0);
  EXPECT_DOUBLE_EQ(
      counters.at("campaign.bugs_repaired").as_double(),
      static_cast<double>(outcome.repaired()));
  // Phase wall-time histograms carry one observation per phase instance.
  const auto& histograms = snapshot.at("histograms");
  EXPECT_GT(histograms.at("phase.precompute.seconds").at("count").as_double(),
            0.0);
  EXPECT_GT(histograms.at("phase.online.seconds").at("count").as_double(),
            0.0);
  // Convergence status: every toy bug repairs, so the flag reads 1.
  EXPECT_DOUBLE_EQ(snapshot.at("gauges").at("campaign.converged").as_double(),
                   1.0);
}

TEST(BugId, OnlyRepairRelevanceDependsOnIt) {
  auto spec_a = toy_spec();
  auto spec_b = toy_spec();
  spec_b.bug_id = 3;
  const ProgramModel program_a(spec_a);
  const ProgramModel program_b(spec_b);
  const TestOracle oracle_a(program_a);
  const TestOracle oracle_b(program_b);
  // Same coverage and safety; different relevance sets.
  EXPECT_EQ(program_a.covered_statements(), program_b.covered_statements());
  util::RngStream rng(5);
  bool relevance_differs = false;
  for (int i = 0; i < 100000; ++i) {
    const Mutation m = random_mutation(program_a, rng);
    EXPECT_EQ(oracle_a.is_safe(m), oracle_b.is_safe(m));
    if (oracle_a.is_repair_relevant(m) != oracle_b.is_repair_relevant(m)) {
      relevance_differs = true;
    }
  }
  EXPECT_TRUE(relevance_differs);
}

}  // namespace
}  // namespace mwr::apr
