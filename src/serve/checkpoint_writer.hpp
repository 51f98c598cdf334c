// Asynchronous checkpoint writer: the durability half of the epoch
// pipeline (DESIGN.md §14).
//
// The server's epoch critical path only *serializes* dirty campaigns —
// encode_checkpoint into an in-memory buffer — and hands the bytes here.
// This writer's dedicated thread then does the slow half off-path: tmp
// write, fsync, rename.  Ordering rules that keep retirement safe:
//
//   per-id FIFO     — operations for one campaign id execute in enqueue
//                     order, so a retire's remove can never be overtaken
//                     by an older write resurrecting the file.
//   latest-wins     — a newer write (or remove) for an id replaces the
//                     id's pending operation in place; only the newest
//                     state ever reaches disk.  Combined with FIFO this
//                     means a retiring campaign simply *cancels* its
//                     in-flight write: enqueue_remove drops the pending
//                     bytes and queues the unlink.
//   flush() barrier — blocks until every queued and in-flight operation
//                     has completed; an explicit checkpoint (the control
//                     plane's kCheckpoint) flushes before replying so the
//                     reply's durability promise is real.  Periodic epoch
//                     checkpoints enqueue without flushing — that is the
//                     whole point of the async path.
//
// Failures never propagate into the writer thread's demise: they are
// counted, the last message is kept, and the next flush() throws so an
// explicit checkpoint reports the loss while periodic ones keep going.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mwr::serve {

class CheckpointWriter {
 public:
  struct Stats {
    std::uint64_t writes = 0;     ///< files renamed into place.
    std::uint64_t removes = 0;    ///< unlinks performed.
    std::uint64_t coalesced = 0;  ///< pending ops replaced before running.
    std::uint64_t failures = 0;   ///< ops that raised an I/O error.
    std::uint64_t bytes = 0;      ///< payload bytes written.
    double writer_seconds = 0.0;  ///< wall time inside file operations.
  };

  CheckpointWriter();
  /// Drains the queue (best-effort; failures are counted, not thrown)
  /// and joins the thread.
  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Queues `bytes` to be written to `path` (tmp + fsync + rename).
  /// Replaces any pending operation for `id`.
  void enqueue_write(std::uint64_t id, std::string path,
                     std::vector<std::uint8_t> bytes);
  /// Queues the removal of `path`, dropping any pending write for `id`
  /// (retire ordering: the campaign's file must not reappear).
  void enqueue_remove(std::uint64_t id, std::string path);
  /// True while an operation for `id` is queued and the writer thread has
  /// not yet taken it (an op already in flight no longer counts).
  [[nodiscard]] bool has_pending(std::uint64_t id) const;

  /// Durability barrier: returns once every operation enqueued before
  /// the call has completed.  Throws std::runtime_error if any operation
  /// failed since the previous flush (the error tally then resets).
  void flush();

  [[nodiscard]] Stats stats() const;

 private:
  struct Op {
    bool remove = false;
    std::string path;
    std::vector<std::uint8_t> bytes;
  };

  void writer_loop();

  mutable util::Mutex mutex_;
  util::CondVar work_cv_;  // writer: queue non-empty or shutting down.
  util::CondVar idle_cv_;  // flush(): queue empty and nothing in flight.
  std::deque<std::uint64_t> fifo_ MWR_GUARDED_BY(mutex_);
  std::unordered_map<std::uint64_t, Op> pending_ MWR_GUARDED_BY(mutex_);
  bool in_flight_ MWR_GUARDED_BY(mutex_) = false;
  bool stop_ MWR_GUARDED_BY(mutex_) = false;
  std::uint64_t failures_since_flush_ MWR_GUARDED_BY(mutex_) = 0;
  std::string last_error_ MWR_GUARDED_BY(mutex_);
  Stats stats_ MWR_GUARDED_BY(mutex_);
  std::thread thread_;  // last member: starts after everything above.
};

}  // namespace mwr::serve
