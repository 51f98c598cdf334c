// Unit tests for costmodel/asymptotics: Table I's symbolic cells and their
// numeric evaluation.
#include <gtest/gtest.h>

#include <cmath>

#include "costmodel/asymptotics.hpp"

namespace mwr::costmodel {
namespace {

using core::MwuKind;

TEST(Symbolic, MatchesTableOne) {
  EXPECT_EQ(symbolic(MwuKind::kStandard, Property::kCommunication), "O(n)");
  EXPECT_EQ(symbolic(MwuKind::kSlate, Property::kCommunication), "O(n)");
  EXPECT_EQ(symbolic(MwuKind::kDistributed, Property::kCommunication),
            "O(ln n / ln ln n)*");
  EXPECT_EQ(symbolic(MwuKind::kStandard, Property::kMemory), "O(k)");
  EXPECT_EQ(symbolic(MwuKind::kDistributed, Property::kMemory), "O(1)");
  EXPECT_EQ(symbolic(MwuKind::kStandard, Property::kConvergence),
            "O(ln k / eps^2)");
  EXPECT_EQ(symbolic(MwuKind::kSlate, Property::kConvergence),
            "O(k ln k / eps^2)");
  EXPECT_EQ(symbolic(MwuKind::kDistributed, Property::kConvergence),
            "O(ln k / delta)");
  EXPECT_EQ(symbolic(MwuKind::kDistributed, Property::kMinAgents),
            "O(k^(1/delta))*");
}

TEST(Symbolic, HighProbabilityStarsOnlyDistributedCommAndAgents) {
  for (const auto kind : {MwuKind::kStandard, MwuKind::kDistributed,
                          MwuKind::kSlate, MwuKind::kExp3}) {
    for (const auto property : {Property::kCommunication, Property::kMemory,
                                Property::kConvergence,
                                Property::kMinAgents}) {
      const bool starred =
          kind == MwuKind::kDistributed &&
          (property == Property::kCommunication ||
           property == Property::kMinAgents);
      EXPECT_EQ(symbolic(kind, property).ends_with('*'), starred)
          << symbolic(kind, property);
    }
  }
}

TEST(PropertyNames, MatchTableRows) {
  EXPECT_EQ(to_string(Property::kCommunication), "Communication Cost");
  EXPECT_EQ(to_string(Property::kMemory), "Memory Overhead");
  EXPECT_EQ(to_string(Property::kConvergence), "Convergence Time");
  EXPECT_EQ(to_string(Property::kMinAgents), "Minimum Agents");
}

TEST(DeltaOf, MatchesDefinition) {
  EXPECT_NEAR(delta_of(0.75), std::log(3.0), 1e-12);
  EXPECT_THROW((void)delta_of(0.5), std::invalid_argument);
  EXPECT_THROW((void)delta_of(1.0), std::invalid_argument);
  EXPECT_THROW((void)delta_of(0.0), std::invalid_argument);
}

TEST(Evaluate, CommunicationValues) {
  OperatingPoint point;
  point.agents = 64;
  EXPECT_DOUBLE_EQ(evaluate(MwuKind::kStandard, Property::kCommunication,
                            point),
                   64.0);
  EXPECT_LT(evaluate(MwuKind::kDistributed, Property::kCommunication, point),
            5.0);
}

TEST(Evaluate, MemoryValues) {
  OperatingPoint point;
  point.options = 500;
  EXPECT_DOUBLE_EQ(evaluate(MwuKind::kSlate, Property::kMemory, point), 500.0);
  EXPECT_DOUBLE_EQ(evaluate(MwuKind::kDistributed, Property::kMemory, point),
                   1.0);
}

TEST(Evaluate, ConvergenceOrdering) {
  OperatingPoint point;
  point.options = 1000;
  const double standard =
      evaluate(MwuKind::kStandard, Property::kConvergence, point);
  const double slate =
      evaluate(MwuKind::kSlate, Property::kConvergence, point);
  const double distributed =
      evaluate(MwuKind::kDistributed, Property::kConvergence, point);
  // Slate pays the extra factor of k; Distributed's delta beats eps^2.
  EXPECT_GT(slate, standard);
  EXPECT_LT(distributed, standard);
  EXPECT_NEAR(standard, std::log(1000.0) / 0.0025, 1e-6);
}

TEST(Evaluate, MinAgentsGrowsWithKOnlyForDistributed) {
  OperatingPoint small;
  small.options = 100;
  OperatingPoint large;
  large.options = 10000;
  EXPECT_EQ(evaluate(MwuKind::kStandard, Property::kMinAgents, small),
            evaluate(MwuKind::kStandard, Property::kMinAgents, large));
  EXPECT_LT(evaluate(MwuKind::kDistributed, Property::kMinAgents, small),
            evaluate(MwuKind::kDistributed, Property::kMinAgents, large));
}

}  // namespace
}  // namespace mwr::costmodel
