// The multi-process fabric under CommWorld: how one process of a
// multi-process world exchanges WireFrames with its peers.
//
// An in-process world has no Endpoint at all — it is the one-process
// layout, every rank local.  A multi-process world runs over a matrix of
// AF_UNIX stream socketpairs, one per unordered process pair (DESIGN.md
// §11), created by the launcher *before* forking so every child inherits
// its ends and nothing touches the filesystem namespace.  After fork each
// child claims its own row (closing every fd that belongs to a sibling);
// the launcher releases the whole fabric once all children are running.
//
// Stream semantics give the two properties CommWorld needs for free:
// per-peer FIFO delivery (the non-overtaking mailbox guarantee) and a
// definite end-of-stream — a dead peer's sockets read EOF, which recv()
// turns into a TransportError the drain thread makes a world abort.  A
// local abort calls shutdown(SHUT_RDWR) on every owned fd, which both
// wakes this process's blocked reads and shows peers the same EOF.
//
// Sends are *batched across the seam*: frames accumulate in a per-peer
// buffer and reach the socket on flush() — callers flush before every
// blocking point (Comm::recv, barrier marker exchange), so a burst of
// probe/observe traffic between two barriers crosses the process boundary
// in a handful of writes instead of one syscall per message.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "parallel/transport/wire.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mwr::parallel::transport {

/// Raised when the fabric fails or a peer process dies: blocked barrier
/// exchanges and sends throw it so the world unwinds instead of hanging.
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what)
      : std::runtime_error("transport: " + what) {}
};

/// The pre-fork half: owns one socketpair per unordered process pair.
class UdsFabric {
 public:
  /// Throws TransportError when a socketpair cannot be created.
  static std::shared_ptr<UdsFabric> create(std::size_t processes,
                                           std::size_t global_ranks);

  ~UdsFabric();
  UdsFabric(const UdsFabric&) = delete;
  UdsFabric& operator=(const UdsFabric&) = delete;

  [[nodiscard]] std::size_t processes() const noexcept { return processes_; }

  /// Closes every fd this copy of the fabric still holds.  The launcher
  /// calls this after forking all children: once the parent's ends are
  /// gone, a dead child's sockets read EOF at its peers — the launcher
  /// holding them open would mask worker deaths.
  void close_all() noexcept;

 private:
  friend class Endpoint;

  UdsFabric() = default;

  /// fd process `self` uses to exchange frames with `peer`, or -1 once
  /// closed.  Row `self` is that process's end of each pair.
  [[nodiscard]] int fd(std::size_t self, std::size_t peer) const noexcept {
    return fds_[self * processes_ + peer];
  }

  /// Closes every fd that does not belong to process `index`.  Called by
  /// the claiming endpoint right after fork.
  void claim(std::size_t index) noexcept;

  std::size_t processes_ = 0;
  std::size_t global_ranks_ = 0;
  std::vector<int> fds_;
};

/// One process's handle onto a UdsFabric.  Construct after fork with that
/// process's index; construction claims the fabric row and sends the
/// geometry handshake.  send()/flush() may be called concurrently from any
/// rank; recv() for a given peer has a single caller (that peer's drain
/// thread).
class Endpoint {
 public:
  Endpoint(std::shared_ptr<UdsFabric> fabric, std::size_t index);
  ~Endpoint();
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  [[nodiscard]] std::size_t process_count() const noexcept {
    return processes_;
  }
  [[nodiscard]] std::size_t process_index() const noexcept { return index_; }

  /// Queues `frame` for `peer` (FIFO per peer).  Visible to the peer only
  /// after flush(), except that a full batch buffer flushes itself.
  void send(std::size_t peer, const WireFrame& frame);

  /// Pushes every buffered frame onto the sockets.  Must be called before
  /// the sender blocks on anything a peer's progress depends on.
  void flush();

  /// Blocking receive of the next frame from `peer`.  Returns false only
  /// on orderly end-of-stream (the peer sent kShutdown); throws
  /// TransportError when the world aborted or the peer died mid-stream —
  /// the drain thread turns that throw into a world abort.
  [[nodiscard]] bool recv(std::size_t peer, WireFrame& out);

  /// Marks the whole world failed: shuts every owned socket down, which
  /// wakes blocked local readers and shows peers EOF.  Idempotent; the
  /// first reason wins.
  void abort(const std::string& reason);

 private:
  // The per-peer lock also serializes the socket writes, so frames never
  // interleave mid-record.
  struct PeerBuffer {
    util::Mutex mutex;
    std::vector<std::uint8_t> bytes MWR_GUARDED_BY(mutex);
  };
  struct PeerDecode;

  void flush_peer(PeerBuffer& buffer, std::size_t peer);
  /// Writes `size` bytes (whole frames) to the socket self->peer, all of
  /// them or a TransportError.  Called with the peer's batch lock held.
  void write_bytes(std::size_t peer, const std::uint8_t* data,
                   std::size_t size);
  /// Throws TransportError with the first abort reason once abort() ran.
  void throw_if_aborted() const;

  std::shared_ptr<UdsFabric> fabric_;
  std::size_t processes_;
  std::size_t index_;
  std::vector<std::unique_ptr<PeerBuffer>> buffers_;
  std::vector<std::unique_ptr<PeerDecode>> decode_;
  std::atomic<bool> abort_requested_{false};
  mutable util::Mutex abort_mutex_;
  std::string abort_reason_ MWR_GUARDED_BY(abort_mutex_);
};

}  // namespace mwr::parallel::transport
