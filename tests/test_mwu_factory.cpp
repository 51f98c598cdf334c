// Unit tests for core/mwu: the factory, the run driver and its per-cycle
// hook, the intractability path, and the MwuResult bookkeeping that feeds
// Tables II-IV.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "core/mwu.hpp"
#include "core/parallel_driver.hpp"
#include "datasets/distributions.hpp"
#include "obs/registry.hpp"

namespace mwr::core {
namespace {

MwuConfig config_for(std::size_t k) {
  MwuConfig config;
  config.num_options = k;
  return config;
}

TEST(MwuKindNames, AreThePapersNames) {
  EXPECT_EQ(to_string(MwuKind::kStandard), "Standard");
  EXPECT_EQ(to_string(MwuKind::kSlate), "Slate");
  EXPECT_EQ(to_string(MwuKind::kDistributed), "Distributed");
}

TEST(MakeMwu, InstantiatesEachKind) {
  const auto config = config_for(16);
  EXPECT_EQ(make_mwu(MwuKind::kStandard, config)->kind(), MwuKind::kStandard);
  EXPECT_EQ(make_mwu(MwuKind::kSlate, config)->kind(), MwuKind::kSlate);
  EXPECT_EQ(make_mwu(MwuKind::kDistributed, config)->kind(),
            MwuKind::kDistributed);
}

TEST(RunMwu, RejectsOracleConfigMismatch) {
  const auto options = datasets::make_random(8, 1);
  const BernoulliOracle oracle(options);
  auto config = config_for(16);  // oracle has 8
  const auto strategy = make_mwu(MwuKind::kStandard, config);
  EXPECT_THROW((void)run_mwu(*strategy, oracle, config, util::RngStream(1)),
               std::invalid_argument);
}

TEST(RunMwu, ConvergesAndReportsBookkeeping) {
  OptionSet options("easy", {0.05, 0.95, 0.05, 0.05});
  const BernoulliOracle oracle(options);
  auto config = config_for(4);
  const auto result =
      run_mwu(MwuKind::kStandard, oracle, config, util::RngStream(2));
  EXPECT_TRUE(result.converged);
  EXPECT_FALSE(result.intractable);
  EXPECT_EQ(result.best_option, 1u);
  EXPECT_GT(result.iterations, 0u);
  EXPECT_LT(result.iterations, config.max_iterations);
  EXPECT_EQ(result.cpus_per_cycle, config.num_agents);
  // Each cycle evaluates one probe per agent.
  EXPECT_EQ(result.evaluations, result.iterations * config.num_agents);
  EXPECT_EQ(result.cpu_iterations(), result.iterations * config.num_agents);
  ASSERT_EQ(result.probabilities.size(), 4u);
  EXPECT_GT(result.probabilities[1], 0.99);
}

TEST(RunMwu, HitsIterationCapWithoutConverging) {
  // All options identical: no algorithm can separate them.
  OptionSet options("flat", std::vector<double>(16, 0.5));
  const BernoulliOracle oracle(options);
  auto config = config_for(16);
  config.max_iterations = 20;
  const auto result =
      run_mwu(MwuKind::kSlate, oracle, config, util::RngStream(3));
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 20u);
}

TEST(RunMwu, TelemetryCountsEveryCycleAcrossFlushes) {
  // run_mwu flushes its cycle telemetry in batches; a run longer than a
  // batch, ended by the iteration cap, must still count every cycle.
  OptionSet options("flat", std::vector<double>(16, 0.5));
  const BernoulliOracle oracle(options);
  auto config = config_for(16);
  config.max_iterations = 600;
  auto& metrics = obs::MetricsRegistry::global();
  const std::uint64_t cycles_before = metrics.counter("mwu.cycles").value();
  const std::uint64_t probes_before = metrics.counter("mwu.probes").value();
  const std::uint64_t observed_before =
      metrics.histogram("mwu.cycle_seconds").count();
  const auto result =
      run_mwu(MwuKind::kSlate, oracle, config, util::RngStream(3));
  ASSERT_EQ(result.iterations, 600u);
  EXPECT_EQ(metrics.counter("mwu.cycles").value() - cycles_before, 600u);
  EXPECT_EQ(metrics.counter("mwu.probes").value() - probes_before,
            result.cpu_iterations());
  EXPECT_EQ(metrics.histogram("mwu.cycle_seconds").count() - observed_before,
            600u);
}

TEST(RunMwu, DistributedIntractablePathSkipsExecution) {
  const auto options = datasets::make_random(16384, 4);
  const BernoulliOracle oracle(options);
  auto config = config_for(16384);
  const auto result =
      run_mwu(MwuKind::kDistributed, oracle, config, util::RngStream(5));
  EXPECT_TRUE(result.intractable);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_EQ(result.evaluations, 0u);
}

// Table IV's cost is cycles x CPUs per cycle: every cycle probes
// cpus_per_cycle() options, one evaluation each, and every SPMD rank
// probes once per cycle.  A decorator that counts the probes a run really
// makes (from any rank's thread) pins the reported evaluations to both.
class ProbeCounter final : public CostOracle {
 public:
  explicit ProbeCounter(const CostOracle& inner) : inner_(&inner) {}
  [[nodiscard]] std::size_t num_options() const override {
    return inner_->num_options();
  }
  [[nodiscard]] double sample(std::size_t option,
                              util::RngStream& rng) const override {
    probes.fetch_add(1, std::memory_order_relaxed);
    return inner_->sample(option, rng);
  }
  mutable std::atomic<std::uint64_t> probes{0};

 private:
  const CostOracle* inner_;
};

TEST(RunMwu, EvaluationsAreCyclesTimesCpusForEveryKind) {
  const auto options = datasets::make_unimodal(16, 3);
  const BernoulliOracle oracle(options);
  auto config = config_for(16);
  config.max_iterations = 300;
  for (const MwuKind kind : {MwuKind::kStandard, MwuKind::kSlate,
                             MwuKind::kDistributed, MwuKind::kExp3}) {
    const ProbeCounter counter(oracle);
    const auto result = run_mwu(kind, counter, config, util::RngStream(9));
    EXPECT_GT(result.iterations, 0u) << to_string(kind);
    EXPECT_EQ(result.evaluations, result.iterations * result.cpus_per_cycle)
        << to_string(kind);
    EXPECT_EQ(result.evaluations, counter.probes.load()) << to_string(kind);
  }

  // The intractable short-circuit runs no cycle and probes nothing.
  const auto wide = datasets::make_random(16384, 4);
  const BernoulliOracle wide_oracle(wide);
  const ProbeCounter wide_counter(wide_oracle);
  const auto skipped = run_mwu(MwuKind::kDistributed, wide_counter,
                               config_for(16384), util::RngStream(5));
  ASSERT_TRUE(skipped.intractable);
  EXPECT_EQ(skipped.evaluations, skipped.iterations * skipped.cpus_per_cycle);
  EXPECT_EQ(skipped.evaluations, 0u);
  EXPECT_EQ(wide_counter.probes.load(), 0u);
}

TEST(SpmdEvaluations, AreCyclesTimesCpusForEveryDriver) {
  OptionSet options("easy", {0.2, 0.3, 0.8, 0.25});
  const BernoulliOracle oracle(options);
  MwuConfig config;
  config.num_options = 4;
  config.num_agents = 8;
  config.max_iterations = 60;

  const ProbeCounter standard_counter(oracle);
  const auto standard = run_standard_spmd(standard_counter, config, 3);
  EXPECT_GT(standard.result.iterations, 0u);
  EXPECT_EQ(standard.result.evaluations,
            standard.result.iterations * standard.result.cpus_per_cycle);
  EXPECT_EQ(standard.result.evaluations, standard_counter.probes.load());

  const ProbeCounter distributed_counter(oracle);
  const auto distributed =
      run_distributed_spmd(distributed_counter, config, 3, 24);
  EXPECT_GT(distributed.result.iterations, 0u);
  EXPECT_EQ(distributed.result.evaluations,
            distributed.result.iterations * distributed.result.cpus_per_cycle);
  EXPECT_EQ(distributed.result.evaluations, distributed_counter.probes.load());

  // Across two processes the probes happen in the workers; the identity
  // and the in-process run's count still hold.
  MultiprocessOptions mp;
  mp.processes = 2;
  const auto mirrored =
      run_distributed_spmd_multiprocess(oracle, config, 3, 24, mp);
  EXPECT_EQ(mirrored.result.iterations, distributed.result.iterations);
  EXPECT_EQ(mirrored.result.evaluations,
            mirrored.result.iterations * mirrored.result.cpus_per_cycle);
  EXPECT_EQ(mirrored.result.evaluations, distributed.result.evaluations);
}

TEST(RunMwu, DeterministicForFixedSeed) {
  const auto options = datasets::make_unimodal(32, 6);
  const BernoulliOracle oracle(options);
  const auto config = config_for(32);
  const auto a = run_mwu(MwuKind::kStandard, oracle, config, util::RngStream(7));
  const auto b = run_mwu(MwuKind::kStandard, oracle, config, util::RngStream(7));
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.best_option, b.best_option);
  EXPECT_EQ(a.probabilities, b.probabilities);
}

TEST(RunMwu, CycleObserverWatchesWithoutChangingTheRun) {
  const auto options = datasets::make_unimodal(32, 9);
  const BernoulliOracle oracle(options);
  auto config = config_for(32);
  config.num_agents = 8;
  config.max_iterations = 400;
  for (const auto kind : {MwuKind::kStandard, MwuKind::kSlate,
                          MwuKind::kDistributed, MwuKind::kExp3}) {
    const auto plain = run_mwu(kind, oracle, config, util::RngStream(10));
    std::size_t cycles = 0;
    std::uint64_t probes_seen = 0;
    std::vector<double> last_probabilities;
    const auto hooked = run_mwu(
        kind, oracle, config, util::RngStream(10),
        [&](std::span<const std::size_t> probes,
            std::span<const double> rewards, const MwuStrategy& strategy) {
          EXPECT_EQ(probes.size(), rewards.size());
          ++cycles;
          probes_seen += probes.size();
          last_probabilities = strategy.probabilities();
        });
    EXPECT_EQ(hooked.converged, plain.converged) << to_string(kind);
    EXPECT_EQ(hooked.intractable, plain.intractable) << to_string(kind);
    EXPECT_EQ(hooked.iterations, plain.iterations) << to_string(kind);
    EXPECT_EQ(hooked.best_option, plain.best_option) << to_string(kind);
    EXPECT_EQ(hooked.cpus_per_cycle, plain.cpus_per_cycle) << to_string(kind);
    EXPECT_EQ(hooked.evaluations, plain.evaluations) << to_string(kind);
    EXPECT_EQ(hooked.probabilities, plain.probabilities) << to_string(kind);
    EXPECT_EQ(cycles, hooked.iterations) << to_string(kind);
    EXPECT_EQ(probes_seen, hooked.evaluations) << to_string(kind);
    // The hook runs after update(): the last cycle's state is the result's.
    EXPECT_EQ(last_probabilities, hooked.probabilities) << to_string(kind);
  }
}

// Every algorithm must find the clearly-best option of an easy instance.
class AllKindsEasyInstance : public ::testing::TestWithParam<MwuKind> {};

TEST_P(AllKindsEasyInstance, FindsTheDominantOption) {
  std::vector<double> values(20, 0.05);
  values[13] = 0.95;
  OptionSet options("easy20", std::move(values));
  const BernoulliOracle oracle(options);
  const auto config = config_for(20);
  const auto result = run_mwu(GetParam(), oracle, config, util::RngStream(8));
  EXPECT_TRUE(result.converged) << to_string(GetParam());
  EXPECT_EQ(result.best_option, 13u) << to_string(GetParam());
  EXPECT_GT(options.accuracy_percent(result.best_option), 99.0);
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllKindsEasyInstance,
                         ::testing::Values(MwuKind::kStandard,
                                           MwuKind::kSlate,
                                           MwuKind::kDistributed),
                         [](const auto& info) { return to_string(info.param); });

}  // namespace
}  // namespace mwr::core
