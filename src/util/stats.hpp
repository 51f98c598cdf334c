// Streaming and batch statistics used throughout the evaluation harness.
//
// RunningStats implements Welford's online algorithm so per-seed experiment
// results can be folded into mean/stddev without retaining the samples —
// Tables II and III report exactly these two moments over 100 replications.
#pragma once

#include <cstddef>
#include <span>

namespace mwr::util {

/// Numerically-stable streaming mean/variance (Welford).  Also tracks
/// min/max.  Merging two accumulators (parallel reduction) is supported via
/// `merge`, using the Chan et al. pairwise update.
class RunningStats {
 public:
  void add(double x) noexcept;

  /// Folds another accumulator into this one.
  void merge(const RunningStats& other) noexcept;

  /// Rebuilds an accumulator from its exported moments (m2 = variance *
  /// (count - 1)).  Used to carry statistics across process boundaries —
  /// a worker exports count/mean/m2/min/max through its report frame and
  /// the launcher reconstructs the identical accumulator.
  [[nodiscard]] static RunningStats from_moments(std::size_t count,
                                                double mean, double m2,
                                                double min,
                                                double max) noexcept {
    RunningStats s;
    s.n_ = count;
    s.mean_ = mean;
    s.m2_ = m2;
    s.min_ = min;
    s.max_ = max;
    return s;
  }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Batch percentile (linear interpolation between closest ranks).
/// q in [0, 1].  The input span is copied; the original order is preserved.
[[nodiscard]] double percentile(std::span<const double> xs, double q);

}  // namespace mwr::util
