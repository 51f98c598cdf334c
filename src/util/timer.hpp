// Wall-clock timing helpers for the bench harness.
//
// This container exposes a single core, so wall-clock numbers measure
// concurrency overhead rather than true parallel speedup; the cost-model
// module reports modeled cost for the paper's latency claims and these
// timers annotate the bench output for transparency.
#pragma once

#include <chrono>

namespace mwr::util {

/// Monotonic stopwatch.  Starts on construction; restart() re-arms it.
class WallTimer {
 public:
  WallTimer() noexcept : start_(Clock::now()) {}

  void restart() noexcept { start_ = Clock::now(); }

  [[nodiscard]] double elapsed_seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace mwr::util
