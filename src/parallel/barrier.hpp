// Reusable synchronization barrier with cycle accounting.
//
// The Standard and Slate MWU algorithms end every iteration with a global
// synchronization before the weight update (paper §II-A/B); the cost model
// charges one "update cycle" per barrier generation.  std::barrier covers
// the synchronization itself, but the experiments also need to *count*
// generations — CountingBarrier is a central (mutex + condvar) barrier with
// that counter.  Time spent waiting is measured by the callers that care
// (the SPMD drivers' spmd.<driver>.collective_wait_seconds histograms).
//
// Parties may be OS threads (thread-per-rank CommWorld) or superstep-engine
// fibers: a fiber party suspends cooperatively through parallel/coop.hpp,
// making each completed generation a superstep boundary instead of P
// parked threads.  The completion-callback overload runs a callable
// exactly once per generation — by the last arriver, after everyone has
// arrived and before anyone is released — which lets callers fold
// per-cycle bookkeeping (congestion-cycle close) into the barrier instead
// of paying a second synchronization for it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "parallel/coop.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mwr::parallel {

/// A reusable N-party barrier that records the number of completed
/// generations.
class CountingBarrier {
 public:
  explicit CountingBarrier(std::size_t parties);

  /// Blocks until all parties arrive.  The last arriver flips the
  /// generation and wakes the rest.
  void arrive_and_wait() MWR_EXCLUDES(mutex_);

  /// Same, but the last arriver invokes `on_completion` after all parties
  /// have arrived and before any is released — the single-synchronization
  /// slot for per-cycle bookkeeping.  Every party of a generation must use
  /// the same completion (or none plus one caller with it); the barrier
  /// runs whichever completion the last arriver carried.
  void arrive_and_wait(const std::function<void()>& on_completion)
      MWR_EXCLUDES(mutex_);

  /// Number of fully-completed generations (synchronization rounds).
  [[nodiscard]] std::uint64_t generations() const MWR_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t parties() const noexcept { return parties_; }

 private:
  /// A fiber party drops mutex_ around each coop suspension (the engine
  /// must be free to run peers that need the barrier) and re-takes it to
  /// re-check the generation — the release/acquire pair lives on the
  /// relockable MutexLock so the analysis tracks it.
  void arrive_impl(const std::function<void()>* on_completion)
      MWR_EXCLUDES(mutex_);

  const std::size_t parties_;
  mutable util::Mutex mutex_;
  util::CondVar cv_;
  std::size_t arrived_ MWR_GUARDED_BY(mutex_) = 0;
  std::uint64_t generation_ MWR_GUARDED_BY(mutex_) = 0;
  std::vector<CoopToken> fiber_waiters_ MWR_GUARDED_BY(mutex_);
};

}  // namespace mwr::parallel
