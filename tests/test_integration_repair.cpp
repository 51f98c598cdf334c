// Integration tests: the full MWRepair pipeline against the named paper
// scenarios, and the §IV-G structural claims.
#include <gtest/gtest.h>

#include "apr/campaign.hpp"
#include "apr/mwrepair.hpp"
#include "baselines/comparison.hpp"
#include "datasets/scenario.hpp"

namespace mwr {
namespace {

TEST(IntegrationRepair, MwRepairRepairsEveryNamedScenario) {
  // The paper's headline §IV-G claim: MWRepair repairs all C and Java
  // scenarios.  (Reduced pool/budget; the bench runs the full setting.)
  for (const auto& family :
       {datasets::c_scenarios(), datasets::java_scenarios()}) {
    for (const auto& spec : family) {
      apr::CampaignConfig config;
      config.bugs = 1;
      config.repair.agents = 64;
      config.repair.max_iterations = 160;
      config.repair.seed = 5;
      // Sparse-repair scenarios (lighttpd) need the large amortized pool to
      // contain any repair-relevant mutation at all (§III-C).
      config.pool.target_size = 12000;
      config.pool.max_attempts = 96000;
      config.pool.seed = 6 ^ spec.seed;
      const auto outcome = apr::run_campaign(spec, config);
      EXPECT_EQ(outcome.repaired(), 1u) << spec.name;
    }
  }
}

TEST(IntegrationRepair, MultiEditScenariosDefeatSingleEditTools) {
  const auto spec = datasets::scenario_by_name("libtiff-2005-12-14");
  const apr::ProgramModel program(spec);

  // AE (single-edit) cannot repair it with any budget.
  const apr::TestOracle ae_oracle(program);
  baselines::AeConfig ae_config;
  ae_config.max_suite_runs = 4000;
  EXPECT_FALSE(baselines::run_ae(ae_oracle, ae_config).repaired);

  // MWRepair, combining dozens of pooled mutations per probe, repairs it.
  const apr::TestOracle mw_oracle(program);
  apr::PoolConfig pool_config;
  pool_config.target_size = 2000;
  pool_config.seed = 7;
  const auto pool = apr::MutationPool::precompute(mw_oracle, pool_config);
  apr::MwRepairConfig repair_config;
  repair_config.agents = 64;
  repair_config.max_iterations = 160;
  repair_config.seed = 8;
  const apr::MwRepair repair(repair_config);
  const auto outcome = repair.run(mw_oracle, pool);
  EXPECT_TRUE(outcome.repaired);
  EXPECT_GE(outcome.patch.size(), 2u);
}

TEST(IntegrationRepair, RepairPatchesPassVerification) {
  // Every repair the pipeline returns must actually pass the full suite
  // when re-evaluated from scratch.
  const auto spec = datasets::scenario_by_name("units");
  const apr::ProgramModel program(spec);
  const apr::TestOracle oracle(program);
  apr::PoolConfig pool_config;
  pool_config.target_size = 1500;
  pool_config.seed = 9;
  const auto pool = apr::MutationPool::precompute(oracle, pool_config);
  apr::MwRepairConfig repair_config;
  repair_config.agents = 32;
  repair_config.max_iterations = 200;
  repair_config.seed = 10;
  const apr::MwRepair repair(repair_config);
  const auto outcome = repair.run(oracle, pool);
  ASSERT_TRUE(outcome.repaired);
  const apr::TestOracle fresh(program);
  EXPECT_TRUE(fresh.evaluate(outcome.patch).is_repair());
}

TEST(IntegrationRepair, ComparisonPreservesThePapersOrdering) {
  // Structural §IV-G shape on a reduced budget: MWRepair >= every baseline
  // in repairs on the multi-edit scenario set.
  baselines::ComparisonConfig config;  // the bench's own IV-G setting
  config.seed = 20210525;
  const auto libtiff = baselines::compare_on_scenario(
      datasets::scenario_by_name("libtiff-2005-12-14"), config);
  EXPECT_TRUE(libtiff.tools[0].repaired);   // MWRepair
  EXPECT_FALSE(libtiff.tools[2].repaired);  // RSRepair
  EXPECT_FALSE(libtiff.tools[3].repaired);  // AE
}

}  // namespace
}  // namespace mwr
