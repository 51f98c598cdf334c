// Unit tests for costmodel/evaluation: the replication sweep and its
// Tables II-IV caller.
#include <gtest/gtest.h>

#include "costmodel/evaluation.hpp"
#include "datasets/distributions.hpp"

namespace mwr::costmodel {
namespace {

EvalConfig tiny_config() {
  EvalConfig config;
  config.seeds = 2;
  config.max_size = 64;
  config.max_iterations = 2000;
  config.master_seed = 123;
  return config;
}

TEST(RunEvaluation, ThreeCellsPerDataset) {
  const auto cells = run_evaluation(tiny_config());
  // max_size 64 keeps random64, unimodal64, lighttpd(50): 3 datasets x 3.
  ASSERT_EQ(cells.size(), 9u);
  for (std::size_t i = 0; i + 2 < cells.size(); i += 3) {
    EXPECT_EQ(cells[i].kind, core::MwuKind::kStandard);
    EXPECT_EQ(cells[i + 1].kind, core::MwuKind::kDistributed);
    EXPECT_EQ(cells[i + 2].kind, core::MwuKind::kSlate);
    EXPECT_EQ(cells[i].dataset, cells[i + 1].dataset);
    EXPECT_EQ(cells[i].dataset, cells[i + 2].dataset);
  }
}

TEST(RunEvaluation, CellsCarryReplicationStatistics) {
  const auto config = tiny_config();
  const auto cells = run_evaluation(config);
  for (const auto& cell : cells) {
    if (cell.intractable) continue;
    EXPECT_EQ(cell.iterations.count(), config.seeds) << cell.dataset;
    EXPECT_EQ(cell.accuracy.count(), config.seeds);
    EXPECT_GT(cell.cpus_per_cycle, 0u);
    EXPECT_GE(cell.accuracy.mean(), 0.0);
    EXPECT_LE(cell.accuracy.mean(), 100.0);
    EXPECT_NEAR(cell.cpu_iterations.mean(),
                cell.iterations.mean() *
                    static_cast<double>(cell.cpus_per_cycle),
                1e-6);
  }
}

TEST(RunEvaluation, DistributedIntractableCellsAtFullScale) {
  auto config = tiny_config();
  config.seeds = 1;
  config.max_size = 16384;
  config.max_iterations = 1;  // keep the tractable runs trivial
  const auto cells = run_evaluation(config);
  std::size_t intractable = 0;
  for (const auto& cell : cells) {
    if (cell.intractable) {
      EXPECT_EQ(cell.kind, core::MwuKind::kDistributed);
      EXPECT_EQ(cell.size, 16384u);
      ++intractable;
    }
  }
  // Exactly the paper's two "-" cells: random16384 and unimodal16384.
  EXPECT_EQ(intractable, 2u);
}

TEST(RunEvaluation, DeterministicPerMasterSeed) {
  const auto a = run_evaluation(tiny_config());
  const auto b = run_evaluation(tiny_config());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].iterations.mean(), b[i].iterations.mean());
    EXPECT_EQ(a[i].accuracy.mean(), b[i].accuracy.mean());
  }
}

TEST(RunEvaluation, ParallelSweepIsBitIdenticalToSerial) {
  // The sweep fans out at (cell, seed) granularity but folds outcomes into
  // the RunningStats serially in (cell, seed) order, so every statistic —
  // including stddev, which is sensitive to accumulation order — matches
  // the serial sweep exactly at any thread count.
  auto config = tiny_config();
  config.seeds = 3;
  config.threads = 1;
  const auto serial = run_evaluation(config);
  for (const std::size_t threads : {2u, 4u}) {
    config.threads = threads;
    const auto parallel = run_evaluation(config);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].dataset, serial[i].dataset);
      EXPECT_EQ(parallel[i].kind, serial[i].kind);
      EXPECT_EQ(parallel[i].iterations.mean(), serial[i].iterations.mean());
      EXPECT_EQ(parallel[i].iterations.stddev(),
                serial[i].iterations.stddev());
      EXPECT_EQ(parallel[i].accuracy.mean(), serial[i].accuracy.mean());
      EXPECT_EQ(parallel[i].accuracy.stddev(), serial[i].accuracy.stddev());
      EXPECT_EQ(parallel[i].cpu_iterations.mean(),
                serial[i].cpu_iterations.mean());
      EXPECT_EQ(parallel[i].converged_runs, serial[i].converged_runs);
    }
  }
}

TEST(RunEvaluation, RaisedPopulationCapMakesFullScaleCellsTractable) {
  // The paper-fidelity default (1M cap) keeps the two k=16384 Distributed
  // cells intractable; an explicit opt-in cap above the required
  // population (16384 * 75 ≈ 1.2M) makes them runnable.
  auto config = tiny_config();
  config.seeds = 1;
  config.max_size = 16384;
  config.max_iterations = 1;  // tractability is the point, not convergence
  config.mwu.max_population = 2'000'000;
  const auto cells = run_evaluation(config);
  for (const auto& cell : cells) {
    EXPECT_FALSE(cell.intractable) << cell.dataset;
    if (cell.kind == core::MwuKind::kDistributed) {
      EXPECT_EQ(cell.iterations.count(), 1u) << cell.dataset;
    }
  }
}

TEST(RunSweep, CallerSeedsMatchAHandRolledSerialLoopAtAnyThreadCount) {
  // Exp3, the sensitivity study and the §IV-E observations seed their own
  // replications; run_sweep must give what a serial loop of run_mwu gives,
  // bit for bit, at any thread count.
  const auto unimodal = datasets::make_unimodal(24, 3);
  const auto random = datasets::make_random(32, 4);
  std::vector<SweepCell> plan;
  for (const core::OptionSet* options : {&unimodal, &random}) {
    core::MwuConfig mwu;
    mwu.num_options = options->size();
    mwu.max_iterations = 400;  // some runs hit the cap
    for (const auto kind : {core::MwuKind::kStandard, core::MwuKind::kExp3,
                            core::MwuKind::kSlate, core::MwuKind::kDistributed})
      plan.push_back({options, kind, mwu});
    mwu.learning_rate = 0.25;
    plan.push_back({options, core::MwuKind::kStandard, mwu});
  }
  const std::size_t seeds = 3;
  const ReplicationSeed seed = [](const SweepCell&, std::size_t s) {
    return 20210525 + 31 * s + 7;
  };

  struct Reference {
    util::RunningStats iterations, accuracy, cpu_iterations;
    std::size_t converged = 0;
  };
  std::vector<Reference> reference(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const core::BernoulliOracle oracle(*plan[i].options);
    for (std::size_t s = 0; s < seeds; ++s) {
      const auto result = core::run_mwu(plan[i].kind, oracle, plan[i].mwu,
                                        util::RngStream(seed(plan[i], s)));
      reference[i].iterations.add(static_cast<double>(result.iterations));
      reference[i].accuracy.add(
          plan[i].options->accuracy_percent(result.best_option));
      reference[i].cpu_iterations.add(
          static_cast<double>(result.cpu_iterations()));
      if (result.converged) ++reference[i].converged;
    }
  }

  std::size_t capped = 0;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const auto cells = run_sweep(plan, seeds, seed, threads);
    ASSERT_EQ(cells.size(), plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const Reference& want = reference[i];
      EXPECT_EQ(cells[i].dataset, plan[i].options->name());
      EXPECT_EQ(cells[i].kind, plan[i].kind);
      EXPECT_FALSE(cells[i].intractable);
      EXPECT_EQ(cells[i].iterations.mean(), want.iterations.mean()) << i;
      EXPECT_EQ(cells[i].iterations.stddev(), want.iterations.stddev()) << i;
      EXPECT_EQ(cells[i].accuracy.mean(), want.accuracy.mean()) << i;
      EXPECT_EQ(cells[i].accuracy.stddev(), want.accuracy.stddev()) << i;
      EXPECT_EQ(cells[i].cpu_iterations.mean(), want.cpu_iterations.mean());
      EXPECT_EQ(cells[i].converged_runs, want.converged) << i;
      if (threads == 1 && want.converged < seeds) ++capped;
    }
  }
  EXPECT_GT(capped, 0u) << "no cell exercised the iteration cap";
}

TEST(RunSweep, IntractableAndMismatchedCells) {
  const auto options = datasets::make_unimodal(16, 1);
  core::MwuConfig mwu;
  mwu.num_options = options.size();
  mwu.max_population = 1;  // below any Distributed population
  const ReplicationSeed seed = [](const SweepCell&, std::size_t s) {
    return s;
  };
  const auto cells = run_sweep(
      {{&options, core::MwuKind::kDistributed, mwu},
       {&options, core::MwuKind::kStandard, mwu}},
      2, seed, 2);
  EXPECT_TRUE(cells[0].intractable);
  EXPECT_EQ(cells[0].iterations.count(), 0u);
  EXPECT_FALSE(cells[1].intractable);
  EXPECT_EQ(cells[1].iterations.count(), 2u);

  mwu.num_options = options.size() + 1;
  EXPECT_THROW((void)run_sweep({{&options, core::MwuKind::kStandard, mwu}}, 1,
                               seed, 1),
               std::invalid_argument);
}

TEST(FindCell, LooksUpByDatasetAndKind) {
  const auto cells = run_evaluation(tiny_config());
  const auto& cell = find_cell(cells, "random64", core::MwuKind::kSlate);
  EXPECT_EQ(cell.dataset, "random64");
  EXPECT_EQ(cell.kind, core::MwuKind::kSlate);
  EXPECT_THROW((void)find_cell(cells, "no-such-dataset", core::MwuKind::kSlate),
               std::invalid_argument);
}

}  // namespace
}  // namespace mwr::costmodel
