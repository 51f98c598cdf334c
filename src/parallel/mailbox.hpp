// Multi-producer single-consumer mailbox: the per-rank receive queue of the
// communicator (parallel/comm.hpp).
//
// Payloads are small sequences of doubles plus a small integer tag, which
// covers everything the MWU algorithms exchange (weights, results, adopted
// options).  Blocking receive supports tag filtering; source filtering is
// expressed by encoding the source rank in the message envelope so the
// congestion tracker can attribute load.
//
// Two properties matter at large populations:
//  - payloads up to kInlineDoubles live inside the envelope (small-buffer
//    optimization), so the dominant message shapes of the Distributed SPMD
//    driver — empty observe requests and one-double replies — never touch
//    the heap per message;
//  - a receiver running as a fiber on the superstep engine suspends
//    cooperatively (parallel/coop.hpp) instead of parking its OS thread,
//    so thousands of blocked ranks cost nothing but their registration.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "parallel/coop.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mwr::parallel {

/// Any-source / any-tag wildcard for Mailbox::recv.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Message payload with a small-buffer optimization.  It has two
/// representations: up to kInlineDoubles values are stored inline, and
/// longer payloads spill to a heap vector (whose buffer is stolen when
/// constructed from a vector rvalue).  Exposes the subset of the vector
/// interface the substrate and its callers use, plus implicit conversion
/// back to std::vector<double> at collective boundaries.
class PayloadVec {
 public:
  static constexpr std::size_t kInlineDoubles = 4;

  PayloadVec() noexcept = default;
  PayloadVec(const PayloadVec&) = default;
  PayloadVec& operator=(const PayloadVec&) = default;

  // A moved-from payload is empty, never a size over a stolen heap buffer.
  PayloadVec(PayloadVec&& other) noexcept
      : size_(std::exchange(other.size_, 0)),
        inline_(other.inline_),
        heap_(std::move(other.heap_)) {}

  PayloadVec& operator=(PayloadVec&& other) noexcept {
    if (this != &other) {
      size_ = std::exchange(other.size_, 0);
      inline_ = other.inline_;
      heap_ = std::move(other.heap_);
    }
    return *this;
  }

  PayloadVec(std::initializer_list<double> values) {
    if (values.size() <= kInlineDoubles) {
      size_ = values.size();
      std::size_t i = 0;
      for (const double v : values) inline_[i++] = v;
    } else {
      size_ = values.size();
      heap_.assign(values.begin(), values.end());
    }
  }

  // Implicit by design: send sites hand over std::vector payloads exactly
  // as they did before the small-buffer representation existed.
  PayloadVec(std::vector<double> values) {  // NOLINT(google-explicit-constructor)
    size_ = values.size();
    if (size_ <= kInlineDoubles) {
      for (std::size_t i = 0; i < size_; ++i) inline_[i] = values[i];
    } else {
      heap_ = std::move(values);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// True when the payload owns a per-message heap vector.
  [[nodiscard]] bool spilled() const noexcept {
    return size_ > kInlineDoubles;
  }

  [[nodiscard]] const double* data() const noexcept {
    return spilled() ? heap_.data() : inline_.data();
  }
  [[nodiscard]] double* data() noexcept {
    return spilled() ? heap_.data() : inline_.data();
  }

  [[nodiscard]] const double* begin() const noexcept { return data(); }
  [[nodiscard]] const double* end() const noexcept { return data() + size_; }

  [[nodiscard]] double operator[](std::size_t i) const noexcept {
    return data()[i];
  }
  [[nodiscard]] double at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("PayloadVec::at");
    return data()[i];
  }

  [[nodiscard]] std::vector<double> to_vector() && {
    if (spilled()) return std::move(heap_);
    return std::vector<double>(begin(), end());
  }
  [[nodiscard]] std::vector<double> to_vector() const& {
    return std::vector<double>(begin(), end());
  }

  // NOLINTNEXTLINE(google-explicit-constructor)
  operator std::vector<double>() && { return std::move(*this).to_vector(); }
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator std::vector<double>() const& { return to_vector(); }

 private:
  std::size_t size_ = 0;
  std::array<double, kInlineDoubles> inline_{};
  std::vector<double> heap_;  ///< engaged iff spilled().
};

/// One message envelope: who sent it, what kind it is, and its payload.
struct Message {
  int source = 0;
  int tag = 0;
  PayloadVec payload;
};

/// Thread-safe FIFO mailbox.  Multiple senders may push concurrently; the
/// owning rank consumes.  recv() matches the *oldest* message satisfying the
/// (source, tag) filter, which mirrors MPI's non-overtaking guarantee per
/// (source, tag) channel.  When the receiver is a superstep-engine fiber,
/// recv() suspends the fiber instead of blocking the worker thread.
class Mailbox {
 public:
  /// Enqueues a message and wakes the receiver.
  void push(Message message) MWR_EXCLUDES(mutex_);

  /// Blocks until a matching message arrives, then removes and returns it.
  /// On the cooperative (fiber) path the mailbox lock is fully released
  /// before the fiber suspends across the coop-scheduler seam and
  /// re-acquired on resume — the waiter registration under mutex_ is what
  /// keeps the wake from being lost in between.
  [[nodiscard]] Message recv(int source = kAnySource, int tag = kAnyTag)
      MWR_EXCLUDES(mutex_);

  /// Non-blocking probe-and-take; std::nullopt when nothing matches.
  [[nodiscard]] std::optional<Message> try_recv(int source = kAnySource,
                                                int tag = kAnyTag)
      MWR_EXCLUDES(mutex_);

  /// Fails the mailbox: wakes any blocked receiver and makes recv() /
  /// try_recv() throw once no already-delivered message matches.  The
  /// multi-process world uses this to unblock ranks waiting on messages a
  /// dead peer will never send.
  void poison(std::string reason) MWR_EXCLUDES(mutex_);

  /// Messages currently queued (racy by nature; for diagnostics).
  [[nodiscard]] std::size_t pending() const MWR_EXCLUDES(mutex_);

  /// Declares that pushes can originate outside the fiber world (a
  /// transport drain thread).  A fiber blocking on such a mailbox brackets
  /// its suspension with CoopScheduler::note_external_wait so the engine's
  /// deadlock detector does not mistake a wait for remote traffic for an
  /// all-blocked world.  Set once by the multi-process CommWorld before any
  /// rank runs.
  void mark_external_feed() noexcept { external_feed_ = true; }

 private:
  [[nodiscard]] std::optional<Message> take_locked(int source, int tag)
      MWR_REQUIRES(mutex_);
  void throw_if_poisoned_locked() const MWR_REQUIRES(mutex_);

  mutable util::Mutex mutex_;
  util::CondVar cv_;
  std::deque<Message> queue_ MWR_GUARDED_BY(mutex_);
  bool poisoned_ MWR_GUARDED_BY(mutex_) = false;
  std::string poison_reason_ MWR_GUARDED_BY(mutex_);
  // Single-consumer: at most one registered cooperative waiter (the owning
  // rank's fiber), armed under mutex_ by recv and disarmed by push.
  CoopToken waiter_ MWR_GUARDED_BY(mutex_){};
  bool has_waiter_ MWR_GUARDED_BY(mutex_) = false;
  // Written once before the world runs, read by the owning fiber only.
  bool external_feed_ = false;
};

}  // namespace mwr::parallel
