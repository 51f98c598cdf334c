// Unit tests for util/timer.
#include <gtest/gtest.h>

#include <thread>

#include "util/timer.hpp"

namespace mwr::util {
namespace {

TEST(WallTimer, MeasuresElapsedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_GE(timer.elapsed_seconds(), 0.025);
  EXPECT_LT(timer.elapsed_seconds(), 5.0);
}

TEST(WallTimer, RestartResets) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  timer.restart();
  EXPECT_LT(timer.elapsed_seconds(), 0.025);
}

TEST(WallTimer, IsMonotone) {
  WallTimer timer;
  double last = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double now = timer.elapsed_seconds();
    EXPECT_GE(now, last);
    last = now;
  }
}

}  // namespace
}  // namespace mwr::util
