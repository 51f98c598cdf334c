// Unit tests for datasets/suite: the twenty-dataset evaluation suite.
#include <gtest/gtest.h>

#include "datasets/suite.hpp"

namespace mwr::datasets {
namespace {

TEST(StandardSuite, TwentyDatasetsAtFullSize) {
  const auto suite = standard_suite(1, 16384);
  EXPECT_EQ(suite.size(), 20u);
  std::size_t random_count = 0;
  std::size_t unimodal_count = 0;
  std::size_t c_count = 0;
  std::size_t java_count = 0;
  for (const auto& d : suite) {
    if (d.family == "random") ++random_count;
    if (d.family == "unimodal") ++unimodal_count;
    if (d.family == "C") ++c_count;
    if (d.family == "Java") ++java_count;
  }
  EXPECT_EQ(random_count, 5u);
  EXPECT_EQ(unimodal_count, 5u);
  EXPECT_EQ(c_count, 5u);
  EXPECT_EQ(java_count, 5u);
}

TEST(StandardSuite, FamiliesArriveInTableOrder) {
  const auto suite = standard_suite(1, 16384);
  const std::vector<std::string> family_order = {"random", "unimodal", "C",
                                                 "Java"};
  std::size_t family_index = 0;
  for (const auto& d : suite) {
    while (family_index < family_order.size() &&
           d.family != family_order[family_index]) {
      ++family_index;
    }
    ASSERT_LT(family_index, family_order.size())
        << "family out of order: " << d.family;
  }
}

TEST(StandardSuite, MaxSizeFiltersLargeInstances) {
  const auto suite = standard_suite(1, 1024);
  for (const auto& d : suite) {
    EXPECT_LE(d.options.size(), 1024u) << d.options.name();
  }
  // random/unimodal lose 4096 & 16384; C loses the two gzip scenarios.
  EXPECT_EQ(suite.size(), 14u);
}

TEST(StandardSuite, DeterministicPerSeed) {
  const auto a = standard_suite(5, 256);
  const auto b = standard_suite(5, 256);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].options.values()[0], b[i].options.values()[0]);
  }
}

}  // namespace
}  // namespace mwr::datasets
