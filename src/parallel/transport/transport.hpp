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
// Each channel is one FrameStream (frame_stream.hpp).  Stream semantics
// give CommWorld per-peer FIFO delivery (the non-overtaking mailbox
// guarantee) and a definite end-of-stream: a dead peer's sockets read
// EOF, which recv() turns into a TransportError the drain thread makes a
// world abort.  Endpoint adds the geometry handshake, kShutdown as
// orderly end-of-stream, and abort: shutdown(SHUT_RDWR) on every owned
// socket both wakes this process's blocked reads and shows peers the same
// EOF.  Sends are batched across the seam: frames accumulate in the
// peer's outbound queue and reach the socket on flush() — callers flush
// before every blocking point (Comm::recv, barrier marker exchange), so a
// burst of probe/observe traffic between two barriers crosses the process
// boundary in a handful of writes instead of one syscall per message.  A
// frame announced past FrameStream::kMaxFrameBytes (4 MiB) fails the
// world.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "parallel/transport/frame_stream.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mwr::parallel::transport {

/// The pre-fork half: owns one socketpair per unordered process pair.
class UdsFabric {
 public:
  /// Throws TransportError when a socketpair cannot be created.
  static std::shared_ptr<UdsFabric> create(std::size_t processes,
                                           std::size_t global_ranks);

  UdsFabric(const UdsFabric&) = delete;
  UdsFabric& operator=(const UdsFabric&) = delete;

  [[nodiscard]] std::size_t processes() const noexcept { return processes_; }

  /// Closes every socket this copy of the fabric still holds.  The
  /// launcher calls this after forking all children: once the parent's
  /// ends are gone, a dead child's sockets read EOF at its peers — the
  /// launcher holding them open would mask worker deaths.
  void close_all() noexcept { streams_.clear(); }

 private:
  friend class Endpoint;

  UdsFabric() = default;

  /// Hands process `index` its row — its end of each pair, null for
  /// itself — and closes every other socket.  Called by the claiming
  /// endpoint right after fork.
  std::vector<std::unique_ptr<FrameStream>> claim(std::size_t index);

  std::size_t processes_ = 0;
  std::size_t global_ranks_ = 0;
  /// Row-major [self][peer]: process `self`'s end of its pair with `peer`.
  std::vector<std::unique_ptr<FrameStream>> streams_;
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
  // One per peer.  The write half of `stream` is used under `write_mutex`
  // (which also keeps frames from interleaving mid-record); the read half
  // belongs to the peer's drain thread alone.
  struct Peer {
    explicit Peer(std::unique_ptr<FrameStream> s) : stream(std::move(s)) {}
    util::Mutex write_mutex;
    std::unique_ptr<FrameStream> stream;
    bool hello_seen = false;  ///< drain thread only.
  };

  /// Writes the peer's queued frames, all of them or a TransportError.
  void flush_peer(Peer& channel, std::size_t peer)
      MWR_REQUIRES(channel.write_mutex);
  /// Throws TransportError with the first abort reason once abort() ran.
  void throw_if_aborted() const;

  std::size_t processes_;
  std::size_t index_;
  std::uint64_t hello_;  ///< the geometry fingerprint both ends must share.
  std::vector<std::unique_ptr<Peer>> peers_;  ///< null at index_.
  std::atomic<bool> abort_requested_{false};
  mutable util::Mutex abort_mutex_;
  std::string abort_reason_ MWR_GUARDED_BY(abort_mutex_);
};

}  // namespace mwr::parallel::transport
