// The transport seam under CommWorld: how one process of a multi-process
// world exchanges WireFrames with its peers.
//
// Two backends implement it (DESIGN.md §11); an in-process world has no
// Endpoint at all — it is the one-process layout, every rank local:
//   shm ring    — SPSC byte rings in a MAP_SHARED segment with futex
//                 wake-up, one per ordered process pair (shm_ring.hpp);
//   UDS         — AF_UNIX stream sockets, one per unordered process pair
//                 (uds.hpp), for worlds whose processes share nothing but
//                 the kernel.
//
// Sends are *batched across the seam*: frames accumulate in a per-peer
// buffer and reach the fabric on flush() — callers flush before every
// blocking point (Comm::recv, barrier marker exchange), so a burst of
// probe/observe traffic between two barriers crosses the process boundary
// in a handful of writes instead of one syscall per message.  Per-peer
// delivery order is FIFO; that is what the mailbox's non-overtaking
// guarantee rests on.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "parallel/transport/wire.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mwr::parallel::transport {

/// Which fabric a multi-process world runs on.  There is no in-process
/// kind: an in-process world is a CommWorld with no endpoint.  The values
/// keep the numbering they had when 0 was the in-process kind, so a
/// printed or logged kind means the same fabric as before.
enum class TransportKind { kShmRing = 1, kUds = 2 };

[[nodiscard]] std::string to_string(TransportKind kind);
/// Parses "shm" / "uds" (and their aliases); throws std::invalid_argument
/// otherwise, "inproc" included.
[[nodiscard]] TransportKind parse_transport_kind(const std::string& name);

/// Raised when the fabric fails or a peer process dies: blocked barrier
/// exchanges and sends throw it so the world unwinds instead of hanging.
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what)
      : std::runtime_error("transport: " + what) {}
};

/// One process's handle onto the fabric.  send()/flush() may be called
/// concurrently from any rank; recv() for a given peer has a single caller
/// (that peer's drain thread).
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  [[nodiscard]] virtual std::size_t process_count() const noexcept = 0;
  [[nodiscard]] virtual std::size_t process_index() const noexcept = 0;
  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Queues `frame` for `peer` (FIFO per peer).  Visible to the peer only
  /// after flush(), except that a full batch buffer flushes itself.
  virtual void send(std::size_t peer, const WireFrame& frame) = 0;

  /// Pushes every buffered frame into the fabric.  Must be called before
  /// the sender blocks on anything a peer's progress depends on.
  virtual void flush() = 0;

  /// Blocking receive of the next frame from `peer`.  Returns false only
  /// on orderly end-of-stream (the peer sent kShutdown); throws
  /// TransportError when the world aborted or the peer died mid-stream —
  /// the drain thread turns that throw into a world abort.
  [[nodiscard]] virtual bool recv(std::size_t peer, WireFrame& out) = 0;

  /// Marks the whole world failed: wakes blocked senders/receivers, which
  /// then throw TransportError / return false.  Idempotent; the first
  /// reason wins.  Backends propagate it to peer processes where the
  /// fabric allows (shm abort flag; UDS socket shutdown).
  virtual void abort(const std::string& reason) = 0;

  [[nodiscard]] virtual bool aborted() const = 0;
  [[nodiscard]] virtual std::string abort_reason() const = 0;
};

/// Shared send-side batching: encodes frames into a per-peer buffer and
/// hands contiguous byte runs to the backend's write_bytes().  The per-peer
/// lock also serializes write_bytes, so frames never interleave mid-record
/// on the fabric.
class BufferedEndpoint : public Endpoint {
 public:
  /// Buffered bytes beyond which send() flushes that peer inline.
  static constexpr std::size_t kFlushThresholdBytes = 32 * 1024;

  BufferedEndpoint(std::size_t processes, std::size_t index);

  [[nodiscard]] std::size_t process_count() const noexcept override {
    return processes_;
  }
  [[nodiscard]] std::size_t process_index() const noexcept override {
    return index_;
  }

  void send(std::size_t peer, const WireFrame& frame) override;
  void flush() override;

  void abort(const std::string& reason) override;
  [[nodiscard]] bool aborted() const override;
  [[nodiscard]] std::string abort_reason() const override;

 protected:
  /// Writes `size` bytes (whole frames) to the fabric channel self->peer.
  /// Called with the peer's batch lock held; must deliver everything or
  /// throw TransportError.
  virtual void write_bytes(std::size_t peer, const std::uint8_t* data,
                           std::size_t size) = 0;

  /// Backend hook run by abort() exactly once (socket shutdown, shared
  /// abort flag, ...).  Called without batch locks held.
  virtual void abort_fabric(const std::string& reason) = 0;

  /// True once abort() ran — backends poll this in their wait loops.
  [[nodiscard]] bool abort_requested() const noexcept {
    return abort_requested_.load(std::memory_order_acquire);
  }

 private:
  struct PeerBuffer {
    util::Mutex mutex;
    std::vector<std::uint8_t> bytes MWR_GUARDED_BY(mutex);
  };

  void flush_peer(PeerBuffer& buffer, std::size_t peer);

  std::size_t processes_;
  std::size_t index_;
  std::vector<std::unique_ptr<PeerBuffer>> buffers_;
  std::atomic<bool> abort_requested_{false};
  mutable util::Mutex abort_mutex_;
  std::string abort_reason_ MWR_GUARDED_BY(abort_mutex_);
};

namespace detail {
/// Backends report delivered frames here (obs transport.frames_received).
void note_frames_received(std::size_t n) noexcept;
}  // namespace detail

}  // namespace mwr::parallel::transport
