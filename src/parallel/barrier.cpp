#include "parallel/barrier.hpp"

#include <stdexcept>

namespace mwr::parallel {

CountingBarrier::CountingBarrier(std::size_t parties) : parties_(parties) {
  if (parties == 0) throw std::invalid_argument("barrier needs >= 1 party");
}

void CountingBarrier::arrive_and_wait() { arrive_impl(nullptr); }

void CountingBarrier::arrive_and_wait(
    const std::function<void()>& on_completion) {
  arrive_impl(&on_completion);
}

void CountingBarrier::arrive_impl(
    const std::function<void()>* on_completion) {
  const CoopToken* coop = coop_current();
  util::MutexLock lock(mutex_);
  const std::uint64_t my_generation = generation_;
  if (++arrived_ == parties_) {
    arrived_ = 0;
    // All parties have arrived and none is released yet: the race-free
    // slot for per-generation bookkeeping.
    if (on_completion != nullptr) (*on_completion)();
    ++generation_;
    std::vector<CoopToken> waiters = std::move(fiber_waiters_);
    fiber_waiters_.clear();
    if (coop != nullptr) coop->scheduler->note_superstep_boundary();
    lock.unlock();
    for (const CoopToken& waiter : waiters) waiter.wake();
    cv_.notify_all();
    return;
  }
  if (coop != nullptr) {
    // Fiber party: register for the generation flip and suspend the fiber
    // instead of the worker thread.  Wakes can be spurious — re-check.
    fiber_waiters_.push_back(*coop);
    while (generation_ == my_generation) {
      lock.unlock();
      coop->scheduler->suspend_current();
      lock.lock();
    }
  } else {
    while (generation_ == my_generation) cv_.wait(mutex_);
  }
}

std::uint64_t CountingBarrier::generations() const {
  util::MutexLock lock(mutex_);
  return generation_;
}

}  // namespace mwr::parallel
