// Unit tests for util/cli: declarative flags and strict parsing; and the
// sweep flags the suite-sweep benches build their EvalConfig from.
#include <gtest/gtest.h>

#include <array>
#include <string>

#include "bench_common.hpp"
#include "util/build_info.hpp"
#include "util/cli.hpp"

namespace mwr::util {
namespace {

// argv helper: parses a Cli against a list of string literals.
template <std::size_t N>
bool parse(Cli& cli, const std::array<const char*, N>& args) {
  std::array<char*, N> argv;
  for (std::size_t i = 0; i < N; ++i) argv[i] = const_cast<char*>(args[i]);
  return cli.parse(static_cast<int>(N), argv.data());
}

TEST(Cli, DefaultsSurviveEmptyParse) {
  Cli cli("test");
  cli.add_int("n", 42, "an int");
  cli.add_double("x", 2.5, "a double");
  cli.add_string("s", "hello", "a string");
  cli.add_flag("f", "a switch");
  EXPECT_TRUE(parse(cli, std::array{"prog"}));
  EXPECT_EQ(cli.get_int("n"), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("x"), 2.5);
  EXPECT_EQ(cli.get_string("s"), "hello");
  EXPECT_FALSE(cli.get_flag("f"));
}

TEST(Cli, ParsesSeparateValueForm) {
  Cli cli("test");
  cli.add_int("n", 0, "");
  EXPECT_TRUE(parse(cli, std::array{"prog", "--n", "17"}));
  EXPECT_EQ(cli.get_int("n"), 17);
}

TEST(Cli, ParsesEqualsForm) {
  Cli cli("test");
  cli.add_double("x", 0.0, "");
  cli.add_string("s", "", "");
  EXPECT_TRUE(parse(cli, std::array{"prog", "--x=1.5", "--s=abc"}));
  EXPECT_DOUBLE_EQ(cli.get_double("x"), 1.5);
  EXPECT_EQ(cli.get_string("s"), "abc");
}

TEST(Cli, ParsesSwitch) {
  Cli cli("test");
  cli.add_flag("full", "");
  EXPECT_TRUE(parse(cli, std::array{"prog", "--full"}));
  EXPECT_TRUE(cli.get_flag("full"));
}

TEST(Cli, NegativeIntegers) {
  Cli cli("test");
  cli.add_int("n", 0, "");
  EXPECT_TRUE(parse(cli, std::array{"prog", "--n", "-5"}));
  EXPECT_EQ(cli.get_int("n"), -5);
}

TEST(Cli, RejectsUnknownFlag) {
  Cli cli("test");
  EXPECT_THROW(parse(cli, std::array{"prog", "--typo"}),
               std::invalid_argument);
}

TEST(Cli, RejectsMissingValue) {
  Cli cli("test");
  cli.add_int("n", 0, "");
  EXPECT_THROW(parse(cli, std::array{"prog", "--n"}), std::invalid_argument);
}

TEST(Cli, RejectsNonNumericValue) {
  Cli cli("test");
  cli.add_int("n", 0, "");
  EXPECT_THROW(parse(cli, std::array{"prog", "--n", "abc"}),
               std::invalid_argument);
}

TEST(Cli, RejectsValueOnSwitch) {
  Cli cli("test");
  cli.add_flag("f", "");
  EXPECT_THROW(parse(cli, std::array{"prog", "--f=1"}), std::invalid_argument);
}

TEST(Cli, RejectsPositionalArguments) {
  Cli cli("test");
  EXPECT_THROW(parse(cli, std::array{"prog", "positional"}),
               std::invalid_argument);
}

TEST(Cli, HelpReturnsFalse) {
  Cli cli("test");
  cli.add_int("n", 0, "");
  ::testing::internal::CaptureStdout();
  EXPECT_FALSE(parse(cli, std::array{"prog", "--help"}));
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("--n"), std::string::npos);
}

TEST(Cli, VersionReturnsFalseAndReportsBuildConfig) {
  Cli cli("mytool — does things");
  ::testing::internal::CaptureStdout();
  EXPECT_FALSE(parse(cli, std::array{"prog", "--version"}));
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("mytool mwrepair/"), std::string::npos);
  EXPECT_NE(out.find("sanitize="), std::string::npos);
  EXPECT_NE(out.find("thread-safety-analysis="), std::string::npos);
  EXPECT_NE(out.find("simd="), std::string::npos);
  EXPECT_EQ(out.find("—"), std::string::npos);  // description tail dropped
}

TEST(BuildInfo, LineIsSelfConsistent) {
  const std::string line = build_info_line("x");
  if (thread_safety_analysis()) {
    EXPECT_NE(line.find("thread-safety-analysis=on"), std::string::npos);
  } else {
    EXPECT_NE(line.find("thread-safety-analysis=off"), std::string::npos);
  }
  const std::string san = sanitizers();
  EXPECT_NE(line.find(san.empty() ? "sanitize=none" : "sanitize=" + san),
            std::string::npos);
  EXPECT_NE(line.find(compiler()), std::string::npos);
  EXPECT_NE(line.find(std::string("simd=") + simd_dispatch()),
            std::string::npos);
}

TEST(Cli, TypedAccessorsEnforceKinds) {
  Cli cli("test");
  cli.add_int("n", 0, "");
  EXPECT_THROW((void)cli.get_double("n"), std::logic_error);
  EXPECT_THROW((void)cli.get_int("never-registered"), std::logic_error);
}

TEST(Cli, UsageListsAllFlagsWithDefaults) {
  Cli cli("my program");
  cli.add_int("count", 9, "how many");
  cli.add_flag("quick", "go fast");
  const std::string usage = cli.usage();
  EXPECT_NE(usage.find("my program"), std::string::npos);
  EXPECT_NE(usage.find("--count N (default 9)"), std::string::npos);
  EXPECT_NE(usage.find("how many"), std::string::npos);
  EXPECT_NE(usage.find("--quick"), std::string::npos);
}

TEST(Cli, SweepFlagsBuildTheEvalConfig) {
  Cli defaults("bench");
  bench::add_sweep_flags(defaults);
  EXPECT_TRUE(parse(defaults, std::array{"prog"}));
  const auto reduced = bench::eval_config_from(defaults);
  EXPECT_EQ(reduced.seeds, 5u);
  EXPECT_EQ(reduced.max_size, 1024u);
  EXPECT_EQ(reduced.master_seed, 20210525u);
  EXPECT_EQ(reduced.threads, 4u);
  EXPECT_EQ(reduced.mwu.max_population, core::MwuConfig{}.max_population);

  Cli cli("bench");
  bench::add_sweep_flags(cli);
  EXPECT_TRUE(parse(cli, std::array{"prog", "--full", "--seeds", "3",
                                    "--max-population", "2000000"}));
  const auto config = bench::eval_config_from(cli);
  EXPECT_EQ(config.seeds, 100u);  // --full wins over --seeds
  EXPECT_EQ(config.max_size, 16384u);
  EXPECT_EQ(config.mwu.max_population, 2'000'000u);
  // Only the six sweep flags are registered; --csv belongs to the bench.
  Cli strict("bench");
  bench::add_sweep_flags(strict);
  EXPECT_THROW((void)parse(strict, std::array{"prog", "--csv", "out.csv"}),
               std::invalid_argument);
}

}  // namespace
}  // namespace mwr::util
