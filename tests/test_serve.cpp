// The campaign server, end to end (minus the socket — that layer is
// tests/test_serve_control.cpp): payload/checkpoint codecs, DRR
// fairness invariants, multi-tenant multiplexing over the oracle hub,
// and the headline durability pin — checkpoint, kill, resume, and the
// trajectory hash is bit-identical to the uninterrupted run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <latch>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "apr/campaign.hpp"
#include "apr/campaign_session.hpp"
#include "apr/oracle_hub.hpp"
#include "apr/outcome_json.hpp"
#include "obs/registry.hpp"
#include "parallel/superstep.hpp"
#include "serve/checkpoint.hpp"
#include "serve/checkpoint_writer.hpp"
#include "serve/control.hpp"
#include "serve/payload_codec.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"

namespace mwr::serve {
namespace {

using apr::OracleHub;

// A small but real campaign over a named scenario: completes in tens of
// milliseconds yet exercises precompute, revalidation, and online MWU.
SubmitRequest small_request(const std::string& scenario,
                            std::uint64_t seed) {
  SubmitRequest request;
  request.scenario = scenario;
  request.bugs = 2;
  request.pool_target = 150;
  request.pool_attempts = 10000;
  request.pool_seed = 11;
  request.arms = 16;
  request.agents = 4;
  request.max_count = 128;
  request.max_iterations = 60;
  request.repair_seed = seed;
  return request;
}

// --- payload codec ------------------------------------------------------

TEST(PayloadCodec, RoundTripsScalarsStringsAndExtremes) {
  PayloadWriter w;
  w.u64(0);
  w.u64(std::numeric_limits<std::uint64_t>::max());
  w.u64(0x123456789abcdef0ull);
  w.u32(0xfedcba98u);
  w.u8(0xff);
  w.f64(-0.0);
  w.f64(1.0 / 3.0);
  w.boolean(true);
  w.str("");
  w.str("gzip-2009-08-16 \x01\x7f\xff");
  const std::vector<std::uint8_t> payload = w.take();
  // Every field at its declared width; a string is a u32 length + bytes.
  EXPECT_EQ(payload.size(), 3 * 8 + 4 + 1 + 2 * 8 + 1 + 4 + (4 + 19));

  PayloadReader r(payload);
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_EQ(r.u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(r.u64(), 0x123456789abcdef0ull);
  EXPECT_EQ(r.u32(), 0xfedcba98u);
  EXPECT_EQ(r.u8(), 0xff);
  const double negative_zero = r.f64();
  EXPECT_EQ(negative_zero, 0.0);
  EXPECT_TRUE(std::signbit(negative_zero));
  EXPECT_EQ(r.f64(), 1.0 / 3.0);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "gzip-2009-08-16 \x01\x7f\xff");
  EXPECT_TRUE(r.done());
}

TEST(PayloadCodec, ThrowsOnTruncationAndMalformedBool) {
  PayloadReader empty({});
  EXPECT_THROW((void)empty.u64(), std::runtime_error);

  const std::vector<std::uint8_t> seven(7, 0);
  PayloadReader short_u64(seven);
  EXPECT_THROW((void)short_u64.u64(), std::runtime_error);
  EXPECT_EQ(short_u64.remaining(), 7u);  // a failed read consumes nothing

  // A bool is exactly 0 or 1.
  const std::vector<std::uint8_t> two = {2};
  PayloadReader b(two);
  EXPECT_THROW((void)b.boolean(), std::runtime_error);

  PayloadWriter w;
  w.u32(100);  // announces a 100-byte string that is not there
  const std::vector<std::uint8_t> truncated = w.take();  // keep it alive
  PayloadReader s(truncated);
  EXPECT_THROW((void)s.str(), std::runtime_error);

  // A count larger than the bytes left could ever hold is refused
  // before anyone reserves memory for it.
  PayloadWriter c;
  c.u32(0xffffffffu);
  c.u64(0);
  const std::vector<std::uint8_t> huge = c.take();
  PayloadReader n(huge);
  EXPECT_THROW((void)n.count(8 + 1), std::runtime_error);
}

// --- control-plane codecs -----------------------------------------------

TEST(ControlCodec, SubmitRoundTrip) {
  SubmitRequest request = small_request("Closure13", 99);
  request.tests = 24;
  request.mwu = 3;
  request.grow_suite = false;
  const SubmitRequest decoded =
      decode_submit_request(encode_submit_request(request));
  EXPECT_EQ(decoded, request);
}

TEST(ControlCodec, RepliesRoundTrip) {
  const SubmitReply submit{true, 42, 17};
  EXPECT_EQ(decode_submit_reply(encode_submit_reply(submit)), submit);

  StatusReply status;
  status.known = true;
  status.bug_index = 3;
  status.bugs_total = 5;
  status.online_cycles = 123;
  status.online_probes = 4567;
  status.repaired = 2;
  status.trajectory_hash = 0xfeedfacecafebeefull;
  EXPECT_EQ(decode_status_reply(encode_status_reply(9, status)), status);

  ResultReply result;
  result.ready = true;
  result.campaign_id = 7;
  result.outcome_json = "{\"schema\": \"mwr-campaign-outcome-v1\"}\n";
  EXPECT_EQ(decode_result_reply(encode_result_reply(result)), result);

  const CheckpointReply checkpoint{8192, 3};
  EXPECT_EQ(decode_checkpoint_reply(encode_checkpoint_reply(checkpoint)),
            checkpoint);

  EXPECT_EQ(decode_shutdown_reply(encode_shutdown_reply(12)), 12u);
}

TEST(ControlCodec, RejectsWrongDirectionAndKind) {
  const auto request = encode_submit_request(SubmitRequest{});
  EXPECT_THROW((void)decode_submit_reply(request), std::runtime_error);
  EXPECT_THROW((void)decode_status_request(request), std::runtime_error);
}

TEST(ControlCodec, PlanForcesSingleThreadedPhases) {
  SubmitRequest request = small_request("Math8", 5);
  const CampaignPlan plan = plan_campaign(request);
  EXPECT_EQ(plan.spec.name, "Math8");
  EXPECT_EQ(plan.config.pool.threads, 1u);
  EXPECT_EQ(plan.config.repair.eval_threads, 1u);
  EXPECT_EQ(plan.config.bugs, 2u);

  request.scenario = "no-such-program";
  EXPECT_THROW((void)plan_campaign(request), std::invalid_argument);
}

TEST(ControlCodec, PlanRejectsDegenerateRepairKnobs) {
  // Every knob a later phase would throw on (MwRepair's arms/max_count
  // guards, the MWU agent count, the oracle's 64-test bitmask) must be
  // refused at SUBMIT: a submission that passed admission and then threw
  // inside an epoch fiber used to take down the whole daemon.
  const SubmitRequest valid = small_request("Math8", 5);
  (void)plan_campaign(valid);  // baseline: the template itself is fine

  SubmitRequest request = valid;
  request.bugs = 0;
  EXPECT_THROW((void)plan_campaign(request), std::invalid_argument);
  request = valid;
  request.arms = 0;
  EXPECT_THROW((void)plan_campaign(request), std::invalid_argument);
  request = valid;
  request.max_count = 0;
  EXPECT_THROW((void)plan_campaign(request), std::invalid_argument);
  request = valid;
  request.agents = 0;
  EXPECT_THROW((void)plan_campaign(request), std::invalid_argument);
  request = valid;
  request.max_iterations = 0;
  EXPECT_THROW((void)plan_campaign(request), std::invalid_argument);
  request = valid;
  request.tests = 65;
  EXPECT_THROW((void)plan_campaign(request), std::invalid_argument);
}

// --- deficit-round-robin scheduler --------------------------------------

TEST(DeficitScheduler, EveryResidentCampaignIsGrantedEveryEpoch) {
  DeficitScheduler scheduler(/*quantum=*/4);
  scheduler.admit(3);
  scheduler.admit(1);
  scheduler.admit(2);
  const auto grants = scheduler.begin_epoch();
  ASSERT_EQ(grants.size(), 3u);
  // Deterministic ascending-id order, every budget >= quantum >= 1.
  EXPECT_EQ(grants[0].id, 1u);
  EXPECT_EQ(grants[1].id, 2u);
  EXPECT_EQ(grants[2].id, 3u);
  for (const auto& grant : grants) EXPECT_GE(grant.budget, 4u);
}

TEST(DeficitScheduler, DeficitCarriesOverAndIsCapped) {
  DeficitScheduler scheduler(/*quantum=*/4, /*max_carry_quanta=*/2);
  scheduler.admit(1);
  // Consume nothing for many epochs: deficit accrues but caps at 2 quanta.
  for (int epoch = 0; epoch < 5; ++epoch) {
    const auto grants = scheduler.begin_epoch();
    ASSERT_EQ(grants.size(), 1u);
    scheduler.settle(1, 0);
  }
  const auto grants = scheduler.begin_epoch();
  EXPECT_EQ(grants[0].budget, 8u);  // capped, not 24
  // Full consumption resets the deficit.
  scheduler.settle(1, 8);
  EXPECT_EQ(scheduler.deficit(1), 0u);
}

TEST(DeficitScheduler, BoundsOveruseAndDuplicateAdmission) {
  DeficitScheduler scheduler(/*quantum=*/2);
  scheduler.admit(1);
  EXPECT_THROW(scheduler.admit(1), std::invalid_argument);
  (void)scheduler.begin_epoch();
  EXPECT_THROW(scheduler.settle(1, 99), std::logic_error);
  scheduler.remove(1);
  EXPECT_EQ(scheduler.resident(), 0u);
  scheduler.settle(1, 5);  // unknown id: ignored, not fatal
}

// --- session refactor identity ------------------------------------------

TEST(CampaignSessionServe, BudgetPartitioningDoesNotChangeTheTrajectory) {
  const CampaignPlan plan = plan_campaign(small_request("units", 21));

  apr::CampaignSession one_shot(plan.spec, plan.config);
  while (!one_shot.done())
    (void)one_shot.step(std::numeric_limits<std::size_t>::max());

  apr::CampaignSession drip(plan.spec, plan.config);
  while (!drip.done()) (void)drip.step(1);

  apr::CampaignSession chunked(plan.spec, plan.config);
  while (!chunked.done()) (void)chunked.step(3);

  EXPECT_EQ(one_shot.trajectory_hash(), drip.trajectory_hash());
  EXPECT_EQ(one_shot.trajectory_hash(), chunked.trajectory_hash());
  EXPECT_EQ(apr::outcome_to_json(one_shot.outcome()).dump(2),
            apr::outcome_to_json(drip.outcome()).dump(2));
}

TEST(CampaignSessionServe, PooledStepMatchesTheStagedCallsAndRunCampaign) {
  // One bug repaired mid-budget, one exhausting it: both cycle endings.
  const CampaignPlan plan =
      plan_campaign(small_request("libtiff-2005-12-14", 17));

  // The staged calls driven by hand, serially, the way the server drives
  // them for one campaign.
  apr::CampaignSession staged(plan.spec, plan.config);
  while (!staged.done()) {
    std::size_t probes = 0;
    if (staged.stage_unit(probes) == 0) break;
    if (!staged.unit_staged()) continue;
    for (std::size_t j = 0; j < probes; ++j) staged.evaluate_staged(j);
    staged.complete_unit();
  }
  ASSERT_TRUE(staged.done());
  // Enough online cycles that budgets 1 and 3 split the campaign.
  std::size_t online_cycles = 0;
  for (const apr::BugOutcome& bug : staged.outcome().bugs)
    online_cycles += bug.online_cycles;
  ASSERT_GT(online_cycles, 3u);
  const std::string staged_json =
      apr::outcome_to_json(staged.outcome()).dump(2);
  EXPECT_EQ(staged_json,
            apr::outcome_to_json(apr::run_campaign(plan.spec, plan.config))
                .dump(2));

  parallel::SuperstepEngine workers(1, parallel::SuperstepEngine::Config{2});
  for (const std::size_t budget :
       {std::size_t{1}, std::size_t{3},
        std::numeric_limits<std::size_t>::max()}) {
    apr::CampaignSession pooled(plan.spec, plan.config);
    while (!pooled.done()) (void)pooled.step(budget, &workers);
    EXPECT_EQ(pooled.trajectory_hash(), staged.trajectory_hash())
        << "budget " << budget;
    EXPECT_EQ(apr::outcome_to_json(pooled.outcome()).dump(2), staged_json)
        << "budget " << budget;
  }
}

TEST(CampaignSessionServe, WaveHookFoldMatchesTheStagedCallsOnAnyEngine) {
  // step() with an engine streams each online cycle through it (the
  // calling thread stages, the workers evaluate, one participant folds
  // the draws into the trajectory hash behind the release mark), and runs
  // the setup units' pool validation on the same engine; the hand-staged
  // calls fold in complete_unit and validate inline.  Every engine size
  // and every budget must give the same hash and outcome as both, and as
  // run_campaign at one thread.  Suite growth is on and the second bug is
  // repaired, so the third bug revalidates its pool on the engine.
  SubmitRequest request = small_request("libtiff-2005-12-14", 17);
  request.bugs = 3;
  const CampaignPlan plan = plan_campaign(request);
  ASSERT_TRUE(plan.config.grow_suite);

  apr::CampaignSession staged(plan.spec, plan.config);
  while (!staged.done()) {
    std::size_t probes = 0;
    if (staged.stage_unit(probes) == 0) break;
    if (!staged.unit_staged()) continue;
    for (std::size_t j = 0; j < probes; ++j) staged.evaluate_staged(j);
    staged.complete_unit();
  }
  ASSERT_TRUE(staged.done());
  std::size_t online_cycles = 0;
  for (const apr::BugOutcome& bug : staged.outcome().bugs)
    online_cycles += bug.online_cycles;
  ASSERT_GT(online_cycles, 3u);
  ASSERT_GT(staged.outcome().bugs.back().maintenance_runs, 0u);
  const std::string staged_json =
      apr::outcome_to_json(staged.outcome()).dump(2);

  apr::CampaignConfig one_thread = plan.config;
  one_thread.repair.eval_threads = 1;
  EXPECT_EQ(apr::outcome_to_json(apr::run_campaign(plan.spec, one_thread))
                .dump(2),
            staged_json);

  for (std::size_t workers = 1; workers <= 4; ++workers) {
    parallel::SuperstepEngine engine(
        1, parallel::SuperstepEngine::Config{workers});
    for (const std::size_t budget :
         {std::size_t{1}, std::size_t{3},
          std::numeric_limits<std::size_t>::max()}) {
      apr::CampaignSession pooled(plan.spec, plan.config);
      while (!pooled.done()) (void)pooled.step(budget, &engine);
      EXPECT_EQ(pooled.trajectory_hash(), staged.trajectory_hash())
          << "workers " << workers << ", budget " << budget;
      EXPECT_EQ(apr::outcome_to_json(pooled.outcome()).dump(2), staged_json)
          << "workers " << workers << ", budget " << budget;
    }
  }
}

// --- checkpoint codec ---------------------------------------------------

TEST(Checkpoint, CodecRoundTripsAMidCampaignSnapshot) {
  const SubmitRequest request = small_request("libtiff-2005-12-14", 31);
  const CampaignPlan plan = plan_campaign(request);
  apr::CampaignSession session(plan.spec, plan.config);
  // Step past precompute and into the online phase so the snapshot
  // carries a working pool and live RNG/MWU state.
  for (int i = 0; i < 8 && !session.done(); ++i) (void)session.step(1);

  CampaignCheckpoint checkpoint;
  checkpoint.campaign_id = 77;
  checkpoint.request = request;
  checkpoint.snapshot = session.snapshot();
  ASSERT_TRUE(checkpoint.snapshot.has_repair_state);

  const std::vector<std::uint8_t> bytes = encode_checkpoint(checkpoint);
  const CampaignCheckpoint decoded = decode_checkpoint(bytes);

  EXPECT_EQ(decoded.campaign_id, 77u);
  EXPECT_EQ(decoded.request, request);
  const apr::CampaignSnapshot& a = checkpoint.snapshot;
  const apr::CampaignSnapshot& b = decoded.snapshot;
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.phase, b.phase);
  EXPECT_EQ(a.bug_index, b.bug_index);
  EXPECT_EQ(a.current_tests, b.current_tests);
  EXPECT_EQ(a.trajectory_hash, b.trajectory_hash);
  EXPECT_EQ(a.working_pool, b.working_pool);
  EXPECT_EQ(a.repair.rng_state, b.repair.rng_state);
  EXPECT_EQ(a.repair.strategy, b.repair.strategy);  // bit-exact doubles
  EXPECT_EQ(a.repair.iterations, b.repair.iterations);
}

// FNV-1a over a byte string: a compact pin for encoded bytes.
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(Checkpoint, SubmitFrameAndCheckpointBytesArePinned) {
  // A fixed request and a hand-built snapshot, so the pin covers the
  // codecs alone and not any campaign's trajectory.
  SubmitRequest request = small_request("Closure13", 0x123456789abcdefull);
  request.tests = 24;
  request.mwu = 2;
  request.grow_suite = false;

  CampaignCheckpoint checkpoint;
  checkpoint.campaign_id = 0x1'0000'002aull;
  checkpoint.request = request;
  apr::CampaignSnapshot& snap = checkpoint.snapshot;
  snap.fingerprint = 0xfeedfacecafebeefull;
  snap.phase = 2;
  snap.bug_index = 1;
  snap.repaired_so_far = 1;
  snap.current_tests = 25;
  snap.precompute_runs = 4321;
  snap.initial_pool_size = 3;
  snap.trajectory_hash = 0x0123456789abcdefull;
  apr::BugOutcome bug;
  bug.bug_id = 0;
  bug.repaired = true;
  bug.patch_edits = 5;
  bug.maintenance_runs = 3;
  bug.pool_dropped = 1;
  bug.pool_size = 3;
  bug.online_probes = 640;
  bug.online_cycles = 80;
  snap.finished_bugs.push_back(bug);
  snap.current_bug.bug_id = 1;
  snap.current_bug.pool_size = 2;
  snap.working_pool = {{apr::MutationKind::kDelete, 7, 0},
                       {apr::MutationKind::kSwap, 11, 13}};
  snap.has_repair_state = true;
  snap.repair.strategy = {0.25, 1.0 / 3.0, -0.0, 1e-300};
  snap.repair.rng_seed = 99;
  snap.repair.rng_state = {1, 0xffffffffffffffffull, 3, 4};
  snap.repair.iterations = 17;
  snap.repair.probes = 136;
  snap.repair.trajectory_hash = 0xdeadbeefull;

  // Wire format 2, checkpoint format 2: every field at its declared width.
  std::vector<std::uint8_t> frame;
  parallel::transport::encode_frame(encode_submit_request(request), frame);
  EXPECT_EQ(frame.size(), 99u);
  EXPECT_EQ(fnv1a(frame), 0x15eb6b244a791969ull);
  const std::vector<std::uint8_t> bytes = encode_checkpoint(checkpoint);
  EXPECT_EQ(bytes.size(), 556u);
  EXPECT_EQ(fnv1a(bytes), 0xaece6f1ccaef5f5aull);
}

TEST(Checkpoint, DecoderRejectsCorruption) {
  CampaignCheckpoint checkpoint;
  checkpoint.campaign_id = 1;
  checkpoint.request = small_request("units", 1);
  std::vector<std::uint8_t> bytes = encode_checkpoint(checkpoint);
  EXPECT_THROW(
      (void)decode_checkpoint({bytes.data(), bytes.size() / 2}),
      std::runtime_error);
  bytes[bytes.size() - 1] ^= 0xff;
  EXPECT_THROW((void)decode_checkpoint(bytes), std::runtime_error);
}

// --- the durability pin: kill mid-campaign, resume, identical hash ------

TEST(Checkpoint, ResumeIsBitIdenticalToUninterruptedAtEverySeed) {
  for (const std::uint64_t seed : {2ull, 29ull, 303ull}) {
    const SubmitRequest request = small_request("gzip-2009-09-26", seed);
    const CampaignPlan plan = plan_campaign(request);

    apr::CampaignSession uninterrupted(plan.spec, plan.config);
    while (!uninterrupted.done())
      (void)uninterrupted.step(std::numeric_limits<std::size_t>::max());

    // Run N units, snapshot ("the daemon died after cycle N"), resume a
    // fresh session from the snapshot, and finish.
    apr::CampaignSession first_life(plan.spec, plan.config);
    for (int i = 0; i < 6 && !first_life.done(); ++i)
      (void)first_life.step(1);
    const std::vector<std::uint8_t> bytes = encode_checkpoint(
        {/*campaign_id=*/1, request, first_life.snapshot()});

    const CampaignCheckpoint loaded = decode_checkpoint(bytes);
    const CampaignPlan replan = plan_campaign(loaded.request);
    const std::unique_ptr<apr::CampaignSession> second_life =
        apr::CampaignSession::resume(loaded.snapshot, replan.spec,
                                     replan.config);
    while (!second_life->done())
      (void)second_life->step(std::numeric_limits<std::size_t>::max());

    EXPECT_EQ(second_life->trajectory_hash(), uninterrupted.trajectory_hash())
        << "seed " << seed;
    EXPECT_EQ(apr::outcome_to_json(second_life->outcome()).dump(2),
              apr::outcome_to_json(uninterrupted.outcome()).dump(2))
        << "seed " << seed;
  }
}

TEST(Checkpoint, ResumeRejectsTheWrongCampaignDefinition) {
  const SubmitRequest request = small_request("units", 3);
  const CampaignPlan plan = plan_campaign(request);
  apr::CampaignSession session(plan.spec, plan.config);
  (void)session.step(1);
  const apr::CampaignSnapshot snapshot = session.snapshot();

  CampaignPlan other = plan_campaign(small_request("Math80", 3));
  EXPECT_THROW((void)apr::CampaignSession::resume(snapshot, other.spec,
                                                  other.config),
               std::invalid_argument);
}

TEST(Checkpoint, ResumeRejectsOutOfRangePhaseAndBugIndex) {
  const SubmitRequest request = small_request("units", 3);
  const CampaignPlan plan = plan_campaign(request);
  apr::CampaignSession session(plan.spec, plan.config);
  (void)session.step(1);

  apr::CampaignSnapshot bad_phase = session.snapshot();
  bad_phase.phase = 5;  // one past kDone
  EXPECT_THROW((void)apr::CampaignSession::resume(bad_phase, plan.spec,
                                                  plan.config),
               std::invalid_argument);
  apr::CampaignSnapshot bad_bug = session.snapshot();
  bad_bug.bug_index = request.bugs + 1;
  EXPECT_THROW((void)apr::CampaignSession::resume(bad_bug, plan.spec,
                                                  plan.config),
               std::invalid_argument);
}

TEST(Checkpoint, FailedRenameLeavesNoTmpFile) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "mwr-ckpt-failed-rename-test";
  std::filesystem::remove_all(dir);
  // The target is an existing directory, so the final rename fails after
  // the tmp file was written and fsynced.
  const std::filesystem::path path = dir / "campaign-1.ckpt";
  std::filesystem::create_directories(path);
  const std::vector<std::uint8_t> bytes(32, 0x5a);
  EXPECT_THROW((void)write_checkpoint_bytes(bytes, path.string()),
               std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
  EXPECT_TRUE(std::filesystem::is_directory(path));
  std::filesystem::remove_all(dir);
}

// --- oracle hub ---------------------------------------------------------

TEST(OracleHub, SharesPoolsAndOraclesAcrossTenants) {
  OracleHub hub;
  const CampaignPlan plan = plan_campaign(small_request("units", 8));

  const auto pool_a = hub.base_pool(plan.spec, plan.config.pool);
  const auto pool_b = hub.base_pool(plan.spec, plan.config.pool);
  EXPECT_EQ(pool_a.pool.get(), pool_b.pool.get());
  EXPECT_GT(pool_a.precompute_runs, 0u);
  EXPECT_EQ(pool_a.precompute_runs, pool_b.precompute_runs);

  datasets::ScenarioSpec bug = plan.spec;
  bug.bug_id = 0;
  const auto lease_a = hub.oracle_for(bug);
  const auto lease_b = hub.oracle_for(bug);
  EXPECT_EQ(lease_a.oracle.get(), lease_b.oracle.get());

  bug.bug_id = 1;  // a different bug is a different oracle
  const auto lease_c = hub.oracle_for(bug);
  EXPECT_NE(lease_a.oracle.get(), lease_c.oracle.get());

  const OracleHub::Stats stats = hub.stats();
  EXPECT_EQ(stats.pool_builds, 1u);
  EXPECT_EQ(stats.pool_hits, 1u);
  EXPECT_EQ(stats.oracle_builds, 2u);
  EXPECT_EQ(stats.oracle_hits, 1u);
  EXPECT_EQ(stats.cold_oracle_builds, 0u);  // the pool was interned first.
  EXPECT_TRUE(lease_a.oracle->wave_ready());
}

TEST(OracleHub, OraclesDeriveTheirWavesFromThePoolsInterferenceGraph) {
  // The pool's pairs are hashed once, when the pool is interned; every
  // (bug, suite) oracle warmed from it reuses that graph.
  obs::Counter& graphs = obs::MetricsRegistry::global().counter(
      "oracle.interference_graph_builds");
  const std::uint64_t before = graphs.value();
  OracleHub hub;
  const CampaignPlan plan = plan_campaign(small_request("units", 8));
  const auto pool = hub.base_pool(plan.spec, plan.config.pool);
  ASSERT_NE(pool.graph, nullptr);
  EXPECT_EQ(pool.graph->size(), pool.pool->size());
  for (const std::size_t grown : {0u, 2u}) {
    for (const std::size_t bug : {0u, 1u, 2u}) {
      datasets::ScenarioSpec spec = plan.spec;
      spec.bug_id = bug;
      spec.tests = plan.spec.tests + grown;
      EXPECT_TRUE(hub.oracle_for(spec).oracle->wave_ready());
    }
  }
  EXPECT_EQ(hub.stats().oracle_builds, 6u);
  EXPECT_EQ(graphs.value() - before, 1u);
}

TEST(OracleHub, FailedBuildsAreRetriedNotCachedForever) {
  OracleHub hub;
  datasets::ScenarioSpec bad = datasets::scenario_by_name("units");
  bad.tests = 65;  // beyond the oracle's 64-test bitmask: the build throws

  // Each lookup must attempt a fresh build and surface the builder's own
  // error.  A poisoned cache entry would turn the second call into a
  // std::runtime_error("oracle build failed") forever.
  EXPECT_THROW((void)hub.oracle_for(bad), std::invalid_argument);
  EXPECT_THROW((void)hub.oracle_for(bad), std::invalid_argument);
  EXPECT_EQ(hub.stats().oracle_builds, 2u);

  const apr::PoolConfig pool_config;
  EXPECT_THROW((void)hub.base_pool(bad, pool_config), std::invalid_argument);
  EXPECT_THROW((void)hub.base_pool(bad, pool_config), std::invalid_argument);
  EXPECT_EQ(hub.stats().pool_builds, 2u);

  // And a failure leaves the hub fully serviceable for valid specs.
  bad.tests = 12;
  const auto lease = hub.oracle_for(bad);
  EXPECT_NE(lease.oracle, nullptr);
}

TEST(OracleHub, SharedServicesPreserveTheSingleTenantTrajectory) {
  const CampaignPlan plan = plan_campaign(small_request("Chart26", 13));

  apr::CampaignSession isolated(plan.spec, plan.config);
  while (!isolated.done())
    (void)isolated.step(std::numeric_limits<std::size_t>::max());

  OracleHub hub;
  apr::CampaignSession tenant_a(plan.spec, plan.config, &hub);
  apr::CampaignSession tenant_b(plan.spec, plan.config, &hub);
  while (!tenant_a.done())
    (void)tenant_a.step(std::numeric_limits<std::size_t>::max());
  while (!tenant_b.done())
    (void)tenant_b.step(std::numeric_limits<std::size_t>::max());

  // Shared oracles and pools must not perturb the search or the ledger.
  EXPECT_EQ(tenant_a.trajectory_hash(), isolated.trajectory_hash());
  EXPECT_EQ(tenant_b.trajectory_hash(), isolated.trajectory_hash());
  EXPECT_EQ(apr::outcome_to_json(tenant_a.outcome()).dump(2),
            apr::outcome_to_json(isolated.outcome()).dump(2));
}

TEST(OracleHub, PoolsBuiltWithDifferentThreadCountsAreNotShared) {
  // Precompute sizes its validation rounds by pool.threads, so the
  // pool's attempts — the tenant's precompute_runs — depend on it.  A
  // tenant must be charged what its own run_campaign would charge.
  const CampaignPlan plan = plan_campaign(small_request("units", 8));
  OracleHub hub;
  for (const std::size_t threads : {1u, 4u}) {
    apr::CampaignConfig config = plan.config;
    config.pool.threads = threads;
    apr::CampaignSession tenant(plan.spec, config, &hub);
    while (!tenant.done())
      (void)tenant.step(std::numeric_limits<std::size_t>::max());
    EXPECT_EQ(tenant.outcome().precompute_runs,
              apr::run_campaign(plan.spec, config).precompute_runs)
        << threads << " threads";
  }
  EXPECT_EQ(hub.stats().pool_builds, 2u);
}

TEST(OracleHub, ResumeReinternsThePoolSoRestoredOraclesStayWarm) {
  const CampaignPlan plan = plan_campaign(small_request("Chart26", 21));
  datasets::ScenarioSpec first_bug = plan.spec;
  first_bug.bug_id = 0;

  // An oracle requested before any pool of its program is interned is
  // built cold: no wave table, so its tenants lose the fast path.
  {
    OracleHub hub;
    const auto lease = hub.oracle_for(first_bug);
    EXPECT_FALSE(lease.oracle->wave_ready());
    EXPECT_EQ(hub.stats().cold_oracle_builds, 1u);
  }

  OracleHub reference_hub;
  apr::CampaignSession reference(plan.spec, plan.config, &reference_hub);
  while (!reference.done())
    (void)reference.step(std::numeric_limits<std::size_t>::max());

  // Precompute, bug start, two online cycles; then a "restart": resume
  // on a fresh hub that has never run phase 1.
  OracleHub first_hub;
  apr::CampaignSession first(plan.spec, plan.config, &first_hub);
  (void)first.step(4);
  const apr::CampaignSnapshot snapshot = first.snapshot();
  ASSERT_TRUE(snapshot.has_repair_state);

  OracleHub restored_hub;
  const std::unique_ptr<apr::CampaignSession> resumed =
      apr::CampaignSession::resume(snapshot, plan.spec, plan.config,
                                   &restored_hub);
  const OracleHub::Stats stats = restored_hub.stats();
  EXPECT_EQ(stats.pool_builds, 1u);
  EXPECT_EQ(stats.oracle_builds, 1u);
  EXPECT_EQ(stats.cold_oracle_builds, 0u);
  EXPECT_TRUE(restored_hub.oracle_for(first_bug).oracle->wave_ready());

  // The warm oracle changes speed only: the ledger (precompute_runs
  // included) and the trajectory match the uninterrupted campaign.
  while (!resumed->done())
    (void)resumed->step(std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(resumed->trajectory_hash(), reference.trajectory_hash());
  EXPECT_EQ(apr::outcome_to_json(resumed->outcome()).dump(2),
            apr::outcome_to_json(reference.outcome()).dump(2));
  EXPECT_EQ(restored_hub.stats().cold_oracle_builds, 0u);
}

TEST(OracleHub, ConcurrentTenantsShareOneBuildPerKey) {
  // Campaigns stepped on different engine workers race the hub for the
  // same key: exactly one build each, no cold oracle, one shared lease.
  constexpr std::size_t kThreads = 4;
  const CampaignPlan plan = plan_campaign(small_request("gzip-2009-08-16", 3));
  datasets::ScenarioSpec bug = plan.spec;
  bug.bug_id = 0;

  OracleHub hub;
  std::vector<OracleHub::PoolLease> pools(kThreads);
  std::vector<OracleHub::OracleLease> oracles(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      pools[t] = hub.base_pool(plan.spec, plan.config.pool);
      oracles[t] = hub.oracle_for(bug);
    });
  }
  for (std::thread& thread : threads) thread.join();

  const OracleHub::Stats stats = hub.stats();
  EXPECT_EQ(stats.pool_builds, 1u);
  EXPECT_EQ(stats.pool_hits, kThreads - 1);
  EXPECT_EQ(stats.oracle_builds, 1u);
  EXPECT_EQ(stats.oracle_hits, kThreads - 1);
  EXPECT_EQ(stats.cold_oracle_builds, 0u);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(pools[t].pool.get(), pools[0].pool.get()) << "thread " << t;
    EXPECT_EQ(pools[t].graph.get(), pools[0].graph.get()) << "thread " << t;
    EXPECT_EQ(pools[t].precompute_runs, pools[0].precompute_runs);
    EXPECT_EQ(oracles[t].program.get(), oracles[0].program.get());
    EXPECT_EQ(oracles[t].oracle.get(), oracles[0].oracle.get());
  }
  EXPECT_TRUE(oracles[0].oracle->wave_ready());
}

// --- the server ---------------------------------------------------------

TEST(CampaignServer, MultiplexesMixedFamiliesToCompletionWithoutStarvation) {
  ServerConfig config;
  config.max_resident = 64;
  config.quantum = 8;
  config.workers = 4;
  CampaignServer server(config);

  const std::vector<std::string> families = {
      "units", "gzip-2009-08-16", "Chart26", "Math8", "libtiff-2005-12-14"};
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i) {
    const auto id = server.submit(
        small_request(families[static_cast<std::size_t>(i) % families.size()],
                      100 + static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  EXPECT_EQ(server.resident(), 10u);

  server.drain();
  EXPECT_EQ(server.resident(), 0u);
  EXPECT_EQ(server.completed(), 10u);
  EXPECT_EQ(server.starved_epochs(), 0u);  // the zero-starvation invariant
  EXPECT_GT(server.epochs(), 0u);
  EXPECT_FALSE(server.probe_latency_seconds().empty());

  // Every campaign finished, has a status, and yields schema'd JSON.
  for (const std::uint64_t id : ids) {
    const StatusReply status = server.status(id);
    EXPECT_TRUE(status.known);
    EXPECT_TRUE(status.done);
    EXPECT_EQ(status.bugs_total, 2u);
    EXPECT_NE(status.trajectory_hash, 0u);
    const ResultReply result = server.result(id);
    ASSERT_TRUE(result.ready);
    EXPECT_NE(result.outcome_json.find("mwr-campaign-outcome-v1"),
              std::string::npos);
  }

  // Ten campaigns over five families: the hub interned five pools.
  EXPECT_EQ(server.hub().stats().pool_builds, 5u);
  EXPECT_GE(server.hub().stats().pool_hits, 5u);
}

TEST(CampaignServer, ServedResultMatchesSingleShotByteForByte) {
  const SubmitRequest request = small_request("lighttpd-1806-1807", 55);

  ServerConfig config;
  config.workers = 2;
  CampaignServer server(config);
  const auto id = server.submit(request);
  ASSERT_TRUE(id.has_value());
  server.drain();
  const ResultReply served = server.result(*id);
  ASSERT_TRUE(served.ready);

  // The one-schema satellite: a served campaign's result document equals
  // repair_tool's --outcome-out for the same plan, byte for byte.
  const CampaignPlan plan = plan_campaign(request);
  const apr::CampaignOutcome solo = apr::run_campaign(plan.spec, plan.config);
  EXPECT_EQ(served.outcome_json, apr::outcome_to_json(solo).dump(2) + "\n");
}

TEST(CampaignServer, TenantsSharingAPoolKeyMatchTheirSingleShotRuns) {
  // Same scenario and pool knobs, different search seeds: the two
  // campaigns share one pool key and are admitted in the same epoch, so
  // on four workers they race the hub for it.  Each result must still be
  // its own run_campaign document.
  const std::vector<SubmitRequest> requests = {small_request("Math8", 61),
                                               small_request("Math8", 62)};
  ServerConfig config;
  config.workers = 4;
  CampaignServer server(config);
  std::vector<std::uint64_t> ids;
  for (const SubmitRequest& request : requests)
    ids.push_back(*server.submit(request));
  server.drain();
  EXPECT_EQ(server.failed_campaigns(), 0u);
  EXPECT_EQ(server.hub().stats().pool_builds, 1u);
  EXPECT_EQ(server.hub().stats().cold_oracle_builds, 0u);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const CampaignPlan plan = plan_campaign(requests[i]);
    EXPECT_EQ(server.result(ids[i]).outcome_json,
              apr::outcome_to_json(apr::run_campaign(plan.spec, plan.config))
                      .dump(2) +
                  "\n")
        << "campaign " << ids[i];
  }
}

TEST(CampaignServer, AdmissionControlRejectsBeyondTheCap) {
  ServerConfig config;
  config.max_resident = 2;
  config.workers = 2;
  CampaignServer server(config);
  ASSERT_TRUE(server.submit(small_request("units", 1)).has_value());
  ASSERT_TRUE(server.submit(small_request("units", 2)).has_value());
  EXPECT_FALSE(server.submit(small_request("units", 3)).has_value());
  server.drain();
  // Capacity freed: admission opens again.
  EXPECT_TRUE(server.submit(small_request("units", 4)).has_value());
  server.drain();
}

TEST(CampaignServer, MalformedSubmissionIsRejectedWithoutResidue) {
  ServerConfig config;
  config.workers = 2;
  CampaignServer server(config);
  SubmitRequest bad = small_request("units", 1);
  bad.arms = 0;
  EXPECT_THROW((void)server.submit(bad), std::invalid_argument);
  // Rejection is a client error, not daemon state: nothing resident, no
  // scheduler slot, and a well-formed campaign still runs to completion.
  EXPECT_EQ(server.resident(), 0u);
  EXPECT_FALSE(server.run_epoch());
  ASSERT_TRUE(server.submit(small_request("units", 2)).has_value());
  server.drain();
  EXPECT_EQ(server.completed(), 1u);
  EXPECT_EQ(server.failed_campaigns(), 0u);
}

TEST(CampaignServer, ScopedMetricsExposePerCampaignViews) {
  ServerConfig config;
  config.workers = 2;
  CampaignServer server(config);
  const auto id = server.submit(small_request("Closure22", 77));
  ASSERT_TRUE(id.has_value());
  server.drain();

  const std::string prefix = "campaign/" + std::to_string(*id) + "/";
  const obs::JsonValue view =
      obs::MetricsRegistry::global().to_json_filtered(prefix);
  const std::string dumped = view.dump(0);
  EXPECT_NE(dumped.find(prefix + "online.cycles"), std::string::npos);
  EXPECT_NE(dumped.find(prefix + "bugs_attempted"), std::string::npos);
  EXPECT_NE(dumped.find(prefix + "done"), std::string::npos);
  // The unfiltered snapshot still carries the serve-level counters.
  const std::string all =
      obs::MetricsRegistry::global().to_json().dump(/*indent=*/2);
  EXPECT_NE(all.find("serve.epochs"), std::string::npos);
  EXPECT_NE(all.find("serve.starved_epochs"), std::string::npos);
}

TEST(CampaignServer, ServedCyclesObserveTheCycleTimeHistogram) {
  // Served campaigns complete their cycles through the staged calls, not
  // RepairSession::step; every cycle must still land in the histogram.
  auto& registry = obs::MetricsRegistry::global();
  const obs::Histogram& cycle_seconds =
      registry.histogram("repair.online.cycle_seconds");
  const obs::Counter& cycles = registry.counter("repair.online.cycles");
  const std::uint64_t observed_before = cycle_seconds.count();
  const std::uint64_t cycles_before = cycles.value();

  ServerConfig config;
  config.workers = 2;
  CampaignServer server(config);
  ASSERT_TRUE(server.submit(small_request("units", 5)).has_value());
  ASSERT_TRUE(server.submit(small_request("Math8", 6)).has_value());
  server.drain();

  const std::uint64_t served_cycles = cycles.value() - cycles_before;
  EXPECT_GT(served_cycles, 0u);
  EXPECT_EQ(cycle_seconds.count() - observed_before, served_cycles);
}

TEST(CampaignServer, CheckpointRestoreResumesBitIdentically) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "mwr-serve-ckpt-test";
  std::filesystem::remove_all(dir);

  const std::vector<std::string> families = {"units", "gzip-2009-09-26",
                                             "Math80"};
  // Reference: the same submissions run to completion uninterrupted.
  std::vector<std::uint64_t> reference_hashes;
  std::vector<std::string> reference_json;
  {
    ServerConfig config;
    config.workers = 2;
    CampaignServer reference(config);
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < families.size(); ++i)
      ids.push_back(*reference.submit(small_request(families[i], 40 + i)));
    reference.drain();
    for (const std::uint64_t id : ids) {
      reference_hashes.push_back(reference.status(id).trajectory_hash);
      reference_json.push_back(reference.result(id).outcome_json);
    }
  }

  // First daemon life: a few epochs, checkpoint, "kill -9".
  {
    ServerConfig config;
    config.workers = 2;
    // Quantum 1 keeps every campaign mid-flight after three epochs; a
    // wider quantum would let the small ones finish before the snapshot.
    config.quantum = 1;
    config.checkpoint_dir = dir.string();
    CampaignServer first_life(config);
    for (std::size_t i = 0; i < families.size(); ++i)
      ASSERT_TRUE(
          first_life.submit(small_request(families[i], 40 + i)).has_value());
    for (int epoch = 0; epoch < 3 && first_life.resident() > 0; ++epoch)
      (void)first_life.run_epoch();
    ASSERT_EQ(first_life.resident(), families.size())
        << "campaigns finished before the mid-flight checkpoint";
    const CheckpointReply reply = first_life.checkpoint_all();
    EXPECT_EQ(reply.campaigns, first_life.resident());
    EXPECT_GT(reply.bytes, 0u);
    // Destructor without drain = abrupt death.
  }

  // Second daemon life: restore and finish.
  {
    ServerConfig config;
    config.workers = 2;
    config.checkpoint_dir = dir.string();
    CampaignServer second_life(config);
    const std::size_t restored = second_life.restore_from_dir();
    EXPECT_EQ(restored, families.size());
    second_life.drain();
    EXPECT_EQ(second_life.starved_epochs(), 0u);
    // Resume re-interned each campaign's base pool before opening its
    // oracle, so no restored oracle lost the probe-wave fast path.
    EXPECT_EQ(second_life.hub().stats().cold_oracle_builds, 0u);

    for (std::size_t i = 0; i < families.size(); ++i) {
      const std::uint64_t id = i + 1;  // ids are stable across lives
      const StatusReply status = second_life.status(id);
      ASSERT_TRUE(status.known && status.done) << "campaign " << id;
      EXPECT_EQ(status.trajectory_hash, reference_hashes[i])
          << "campaign " << id << " diverged after resume";
      EXPECT_EQ(second_life.result(id).outcome_json, reference_json[i]);
    }
    // Finished campaigns clean their checkpoint files up.  The unlinks
    // are queued on the async writer; the explicit checkpoint is the
    // barrier that makes them visible.
    (void)second_life.checkpoint_all();
    std::size_t remaining = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir))
      remaining += entry.path().extension() == ".ckpt" ? 1u : 0u;
    EXPECT_EQ(remaining, 0u);
  }
  std::filesystem::remove_all(dir);
}

// --- epoch pipeline: bounded telemetry & async durability ---------------

std::vector<std::uint8_t> read_file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

std::size_t count_ckpt_files(const std::filesystem::path& dir) {
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    count += entry.path().extension() == ".ckpt" ? 1u : 0u;
  return count;
}

TEST(CampaignServer, ProbeLatencyWindowStaysBounded) {
  ServerConfig config;
  config.workers = 2;
  config.quantum = 1;  // one unit per campaign-epoch: maximum samples.
  CampaignServer server(config);
  std::vector<std::uint64_t> ids;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    SubmitRequest request = small_request("Math80", seed);
    request.max_iterations = 200;
    ids.push_back(*server.submit(request));
  }
  server.drain();

  // The unbounded predecessor kept one sample per campaign-epoch forever.
  // At quantum 1 every online cycle is one such epoch; prove the run
  // produced more samples than the window holds, then pin the bound.
  std::uint64_t unit_epochs = 0;
  for (const std::uint64_t id : ids)
    unit_epochs += server.status(id).online_cycles;
  // online_cycles counts setup units too; at most 4 per campaign are
  // probe-free, so subtract them before comparing against the window.
  ASSERT_GT(unit_epochs, CampaignServer::kLatencyWindowCapacity + 4 * ids.size())
      << "load too small to overflow the window; raise campaigns or iterations";
  const std::vector<double> window = server.probe_latency_seconds();
  EXPECT_EQ(window.size(), CampaignServer::kLatencyWindowCapacity);
  for (const double seconds : window) EXPECT_GE(seconds, 0.0);
}

// Everything one served run exposes that must not depend on how many
// campaigns the engine steps at once.
struct ServedRun {
  /// Per epoch, per campaign (in id order): trajectory hash and units.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> epochs;
  /// Checkpoint file name -> bytes, after a mid-run checkpoint_all.
  std::map<std::string, std::vector<std::uint8_t>> checkpoints;
  std::vector<std::string> outcomes;
};

ServedRun serve_mixed_families(std::size_t workers) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("mwr-serve-workers-test-" + std::to_string(workers));
  std::filesystem::remove_all(dir);
  const std::vector<std::string> families = {
      "units", "gzip-2009-08-16", "Chart26", "Math80", "libtiff-2005-12-14",
      "units"};
  ServedRun run;
  {
    ServerConfig config;
    config.workers = workers;
    config.quantum = 2;
    config.checkpoint_dir = dir.string();
    CampaignServer server(config);
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < families.size(); ++i) {
      SubmitRequest request = small_request(families[i], 300 + i);
      request.mwu = static_cast<std::uint8_t>(i % 4);
      ids.push_back(*server.submit(request));
    }
    while (server.run_epoch()) {
      auto& epoch = run.epochs.emplace_back();
      for (const std::uint64_t id : ids) {
        const StatusReply status = server.status(id);
        epoch.emplace_back(status.trajectory_hash, status.online_cycles);
      }
      if (run.epochs.size() == 3) {
        EXPECT_EQ(server.checkpoint_all().campaigns, server.resident());
        for (const auto& entry : std::filesystem::directory_iterator(dir))
          run.checkpoints[entry.path().filename().string()] =
              read_file_bytes(entry.path());
      }
    }
    EXPECT_EQ(server.failed_campaigns(), 0u);
    EXPECT_EQ(server.starved_epochs(), 0u);
    for (const std::uint64_t id : ids)
      run.outcomes.push_back(server.result(id).outcome_json);
  }  // the writer thread joins before the directory goes away.
  std::filesystem::remove_all(dir);
  return run;
}

TEST(CampaignServer, WorkerCountDoesNotChangeAnyServedByte) {
  const ServedRun serial = serve_mixed_families(1);
  ASSERT_GT(serial.epochs.size(), 3u);
  ASSERT_GE(serial.checkpoints.size(), 4u);  // most are still mid-flight.
  for (const std::size_t workers : {2u, 4u}) {
    const ServedRun parallel = serve_mixed_families(workers);
    ASSERT_EQ(parallel.epochs.size(), serial.epochs.size())
        << workers << " workers";
    for (std::size_t e = 0; e < serial.epochs.size(); ++e)
      EXPECT_EQ(parallel.epochs[e], serial.epochs[e])
          << workers << " workers, epoch " << e;
    EXPECT_EQ(parallel.checkpoints, serial.checkpoints)
        << workers << " workers";
    EXPECT_EQ(parallel.outcomes, serial.outcomes) << workers << " workers";
  }
}

TEST(CheckpointWriter, LatestWinsCoalescingAndRemoveOrdering) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "mwr-ckpt-writer-test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "campaign-1.ckpt").string();
  {
    CheckpointWriter writer;
    for (int round = 0; round < 64; ++round)
      writer.enqueue_write(
          1, path,
          std::vector<std::uint8_t>(16, static_cast<std::uint8_t>(round)));
    writer.flush();
    // Latest-wins: whatever was executed last carries the newest bytes,
    // and every enqueue either executed or was coalesced into a newer one.
    const std::vector<std::uint8_t> bytes = read_file_bytes(path);
    ASSERT_EQ(bytes.size(), 16u);
    for (const std::uint8_t byte : bytes) EXPECT_EQ(byte, 63u);
    const CheckpointWriter::Stats stats = writer.stats();
    EXPECT_EQ(stats.failures, 0u);
    EXPECT_GE(stats.writes, 1u);
    EXPECT_EQ(stats.writes + stats.coalesced, 64u);

    // A remove after writes deletes the file — and a remove enqueued
    // while a write is still pending replaces it (no resurrection).
    writer.enqueue_write(1, path, std::vector<std::uint8_t>(8, 0xff));
    writer.enqueue_remove(1, path);
    writer.flush();
    EXPECT_FALSE(std::filesystem::exists(path));
  }
  {
    // The destructor drains the queue: no flush, yet the write lands.
    CheckpointWriter writer;
    writer.enqueue_write(2, (dir / "campaign-2.ckpt").string(),
                         std::vector<std::uint8_t>{1, 2, 3});
  }
  EXPECT_EQ(read_file_bytes(dir / "campaign-2.ckpt"),
            (std::vector<std::uint8_t>{1, 2, 3}));
  std::filesystem::remove_all(dir);
}

TEST(CampaignServer, AsyncCheckpointsRaceRetirementWithoutResurrection) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "mwr-serve-churn-test";
  std::filesystem::remove_all(dir);

  {
    ServerConfig config;
    config.workers = 2;
    config.quantum = 4;
    config.checkpoint_dir = dir.string();
    config.checkpoint_every = 1;  // every epoch queues dirty writes...
    CampaignServer server(config);
    for (std::uint64_t seed = 0; seed < 6; ++seed)
      ASSERT_TRUE(server.submit(small_request("units", seed)).has_value());
    // ...and every retirement queues a remove that must cancel any write
    // still in flight for that campaign.  Drain under maximum churn.
    while (server.resident() > 0) (void)server.run_epoch();
    EXPECT_EQ(server.completed(), 6u);
    EXPECT_EQ(server.failed_campaigns(), 0u);

    // The explicit checkpoint is the durability barrier: after it, no
    // retired campaign's file may have been resurrected by a stale write.
    const CheckpointReply reply = server.checkpoint_all();
    EXPECT_EQ(reply.campaigns, 0u);
    EXPECT_EQ(reply.bytes, 0u);
    EXPECT_EQ(count_ckpt_files(dir), 0u);
  }  // the writer thread joins before the directory goes away.
  std::filesystem::remove_all(dir);
}

TEST(CampaignServer, StrayTmpFromKilledFlushIsIgnoredOnRestore) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "mwr-serve-tmp-test";
  std::filesystem::remove_all(dir);

  // First life: one campaign checkpointed mid-flight.
  {
    ServerConfig config;
    config.workers = 2;
    config.quantum = 1;
    config.checkpoint_dir = dir.string();
    CampaignServer first_life(config);
    ASSERT_TRUE(first_life.submit(small_request("units", 9)).has_value());
    for (int epoch = 0; epoch < 2; ++epoch) (void)first_life.run_epoch();
    ASSERT_EQ(first_life.resident(), 1u);
    (void)first_life.checkpoint_all();
  }

  // kill -9 mid-flush leaves only the tmp half of a newer write behind.
  {
    std::ofstream tmp(dir / "campaign-99.ckpt.tmp", std::ios::binary);
    tmp << "truncated by a crash";
  }

  // Second life: the stray tmp is not a checkpoint; the real one resumes.
  {
    ServerConfig config;
    config.workers = 2;
    config.checkpoint_dir = dir.string();
    CampaignServer second_life(config);
    EXPECT_EQ(second_life.restore_from_dir(), 1u);
    EXPECT_EQ(second_life.resident(), 1u);
    second_life.drain();
    EXPECT_EQ(second_life.completed(), 1u);
    EXPECT_EQ(second_life.failed_campaigns(), 0u);
  }  // joins the writer: its queued unlink must not race remove_all.
  std::filesystem::remove_all(dir);
}

// Runs one campaign two epochs into a fresh `dir`, checkpoints it, and
// returns the bytes of the one checkpoint file written.
std::vector<std::uint8_t> checkpoint_one_campaign(
    const std::filesystem::path& dir) {
  std::filesystem::remove_all(dir);
  {
    ServerConfig config;
    config.workers = 2;
    config.quantum = 1;
    config.checkpoint_dir = dir.string();
    CampaignServer first_life(config);
    EXPECT_TRUE(first_life.submit(small_request("units", 13)).has_value());
    for (int epoch = 0; epoch < 2; ++epoch) (void)first_life.run_epoch();
    EXPECT_EQ(first_life.resident(), 1u);
    (void)first_life.checkpoint_all();
  }
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    files.push_back(entry.path());
  EXPECT_EQ(files.size(), 1u);
  std::ifstream in(files.at(0), std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::filesystem::path& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Restores `dir` into a fresh server and drains it; returns how many
// files restore_from_dir rejected.
std::uint64_t restore_and_drain(const std::filesystem::path& dir) {
  obs::Counter& rejected =
      obs::MetricsRegistry::global().counter("serve.restore.rejected");
  const std::uint64_t before = rejected.value();
  ServerConfig config;
  config.workers = 2;
  config.checkpoint_dir = dir.string();
  CampaignServer second_life(config);
  EXPECT_EQ(second_life.restore_from_dir(), 1u);
  EXPECT_EQ(second_life.resident(), 1u);
  second_life.drain();
  EXPECT_EQ(second_life.completed(), 1u);
  EXPECT_EQ(second_life.failed_campaigns(), 0u);
  return rejected.value() - before;
}

TEST(CampaignServer, UnreadableCheckpointsAreSkippedOnRestore) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "mwr-serve-reject-test";
  const std::vector<std::uint8_t> valid = checkpoint_one_campaign(dir);

  // Beside the valid checkpoint: a truncated copy, and a copy whose
  // first frame claims wire version 1.
  write_file(dir / "aa-truncated.ckpt",
             {valid.begin(), valid.begin() + valid.size() / 2});
  std::vector<std::uint8_t> version_1 = valid;
  version_1[8] = 1;  // the u16 version field, after length and magic
  version_1[9] = 0;
  write_file(dir / "zz-version-1.ckpt", version_1);

  EXPECT_EQ(restore_and_drain(dir), 2u);
  // Rejected files are left for inspection.
  EXPECT_TRUE(std::filesystem::exists(dir / "aa-truncated.ckpt"));
  EXPECT_TRUE(std::filesystem::exists(dir / "zz-version-1.ckpt"));
  std::filesystem::remove_all(dir);
}

TEST(CampaignServer, DuplicateCampaignIdIsSkippedOnRestore) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "mwr-serve-duplicate-test";
  const std::vector<std::uint8_t> valid = checkpoint_one_campaign(dir);
  // A second copy decodes and resumes, but its campaign is already
  // resident: admitting it twice would corrupt the scheduler.
  write_file(dir / "zz-copy.ckpt", valid);
  EXPECT_EQ(restore_and_drain(dir), 1u);
  std::filesystem::remove_all(dir);
}

TEST(CampaignServer, DirtyTrackingSkipsCleanCampaignsAndMatchesSyncBytes) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "mwr-serve-dirty-test";
  std::filesystem::remove_all(dir);

  {
    ServerConfig config;
    config.workers = 2;
    config.quantum = 1;
    config.checkpoint_dir = dir.string();
    CampaignServer server(config);
    ASSERT_TRUE(server.submit(small_request("units", 5)).has_value());
    ASSERT_TRUE(server.submit(small_request("Math80", 6)).has_value());
    for (int epoch = 0; epoch < 3; ++epoch) (void)server.run_epoch();
    ASSERT_EQ(server.resident(), 2u);

    const CheckpointReply first = server.checkpoint_all();
    EXPECT_EQ(first.campaigns, 2u);
    EXPECT_GT(first.bytes, 0u);
    const std::vector<std::uint8_t> bytes_1 =
        read_file_bytes(dir / "campaign-1.ckpt");
    const std::vector<std::uint8_t> bytes_2 =
        read_file_bytes(dir / "campaign-2.ckpt");
    ASSERT_FALSE(bytes_1.empty());
    ASSERT_FALSE(bytes_2.empty());

    // No progress since: both campaigns are clean.  The reply still covers
    // them (their files are current) but serializes nothing, and the files
    // are untouched byte for byte.
    const CheckpointReply second = server.checkpoint_all();
    EXPECT_EQ(second.campaigns, 2u);
    EXPECT_EQ(second.bytes, 0u);
    EXPECT_EQ(read_file_bytes(dir / "campaign-1.ckpt"), bytes_1);
    EXPECT_EQ(read_file_bytes(dir / "campaign-2.ckpt"), bytes_2);

    // The async writer's file holds exactly the encoder's bytes: decoding
    // it and encoding again reproduces the file byte for byte.
    const CampaignCheckpoint decoded =
        read_checkpoint_file((dir / "campaign-1.ckpt").string());
    EXPECT_EQ(encode_checkpoint(decoded), bytes_1);

    // One more epoch re-dirties both; the next checkpoint pays again.
    (void)server.run_epoch();
    const CheckpointReply third = server.checkpoint_all();
    EXPECT_EQ(third.campaigns, 2u);
    EXPECT_GT(third.bytes, 0u);
  }  // the writer thread joins before the directory goes away.
  std::filesystem::remove_all(dir);
}

TEST(CampaignServer, PeriodicCheckpointsSkipQueuedWritesYetStayDirty) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "mwr-serve-skip-test";
  std::filesystem::remove_all(dir);

  // First life: every epoch runs a periodic pass while the writer (one
  // fsync per file) lags behind, so later passes find writes still
  // queued and skip those campaigns.  A skipped campaign must stay
  // dirty — the explicit barrier then encodes it; had the pass marked
  // it clean, its file would keep the older queued state.
  std::vector<std::uint64_t> live_hashes;
  {
    ServerConfig config;
    config.workers = 2;
    config.quantum = 1;
    config.checkpoint_dir = dir.string();
    config.checkpoint_every = 1;
    CampaignServer first_life(config);
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      SubmitRequest request = small_request("Math80", 200 + seed);
      request.max_iterations = 200;
      ASSERT_TRUE(first_life.submit(request).has_value());
    }
    for (int epoch = 0; epoch < 24; ++epoch) (void)first_life.run_epoch();
    ASSERT_EQ(first_life.resident(), 8u);
    const CheckpointReply reply = first_life.checkpoint_all();
    EXPECT_EQ(reply.campaigns, 8u);
    for (std::uint64_t id = 1; id <= 8; ++id)
      live_hashes.push_back(first_life.status(id).trajectory_hash);
  }

  // Second life: every file holds exactly the state at the barrier.
  {
    ServerConfig config;
    config.workers = 2;
    config.checkpoint_dir = dir.string();
    CampaignServer second_life(config);
    ASSERT_EQ(second_life.restore_from_dir(), 8u);
    for (std::uint64_t id = 1; id <= 8; ++id) {
      EXPECT_EQ(second_life.status(id).trajectory_hash, live_hashes[id - 1])
          << "campaign " << id << " restored from a stale checkpoint";
    }
    second_life.drain();
    EXPECT_EQ(second_life.completed(), 8u);
    EXPECT_EQ(second_life.failed_campaigns(), 0u);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mwr::serve
