// One framed socket stream: the only code that writes encoded MWRW frames
// to a socket fd and reassembles them from one.  Its users are a world's
// per-peer channels (Endpoint), a process world's per-worker result
// channels (run_process_world) and the campaign server's control
// connections (serve::ControlConn).  Every socket syscall lives in
// frame_stream.cpp; this header is plain C++.
//
// Reads stage bytes in one buffer and yield whole frames; a partial frame
// stays staged until more bytes arrive.  The buffer is compacted before
// it grows, so it holds at most one partial frame plus a read chunk, and
// a length prefix announcing more than kMaxFrameBytes throws as soon as
// it is staged: a peer cannot pin a large buffer by announcing a big
// frame and trickling it in.  Writes go through an outbound queue; a
// vanished peer is a false return (MSG_NOSIGNAL), not SIGPIPE.
//
// The write half (queue_frame, flush, write_all, outbound_bytes) and the
// read half (recv_frame, pump) share no state, so one thread may read
// while another writes.  Each half takes one caller at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "parallel/transport/wire.hpp"

namespace mwr::parallel::transport {

/// Raised when a socket fails, a peer breaks the framing, or (in a world)
/// a peer process dies: blocked exchanges throw it instead of hanging.
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what)
      : std::runtime_error("transport: " + what) {}
};

/// One connected stream socket carrying MWRW frames; owns its fd.
class FrameStream {
 public:
  /// The largest frame a reader accepts, length prefix excluded.
  static constexpr std::size_t kMaxFrameBytes = std::size_t{4} << 20;
  /// Bytes one read asks the kernel for.
  static constexpr std::size_t kReadChunkBytes = 64 * 1024;

  /// Takes ownership of `fd`, a connected stream socket.
  explicit FrameStream(int fd);
  ~FrameStream();

  FrameStream(const FrameStream&) = delete;
  FrameStream& operator=(const FrameStream&) = delete;

  /// Both ends of a fresh AF_UNIX socketpair.  Throws TransportError.
  static std::pair<std::unique_ptr<FrameStream>, std::unique_ptr<FrameStream>>
  connected_pair();

  /// Appends one encoded frame to the outbound queue; no I/O.
  void queue_frame(const WireFrame& frame);
  /// Writes as much of the queue as the socket takes without blocking;
  /// write_all blocks until all of it is written.  A drained queue gives
  /// back its buffer.  Both return false when the peer is gone and throw
  /// TransportError on other errors.
  bool flush();
  bool write_all();
  /// queue_frame, then write_all.
  bool send_frame(const WireFrame& frame);
  /// Queued bytes not yet written.
  [[nodiscard]] std::size_t outbound_bytes() const noexcept {
    return outbound_.size() - sent_;
  }

  /// Blocks until one whole frame arrives; nullopt on orderly EOF.
  /// Throws std::runtime_error on a mid-frame EOF, a socket error, a
  /// malformed frame, a frame announced past kMaxFrameBytes, or when
  /// `timeout_ms` (>= 0) passes without a whole frame.
  std::optional<WireFrame> recv_frame(int timeout_ms = -1);

  /// Non-blocking: one read, then every whole frame staged goes to `out`;
  /// throws like recv_frame on a malformed or oversized frame.  Returns
  /// false when the peer closed, mid-frame or not; frames appended in the
  /// same call are still valid.
  bool pump(std::vector<WireFrame>& out);

  /// Bytes the read buffer holds allocated.
  [[nodiscard]] std::size_t read_buffer_bytes() const noexcept {
    return staged_.size();
  }

  /// shutdown(2) both ways: wakes a reader blocked on this stream and
  /// shows the peer EOF.  Safe from any thread.
  void shutdown() noexcept;

  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  bool fill_buffer(bool blocking);  ///< false on EOF.
  bool write_queue(bool blocking);

  int fd_;
  std::vector<std::uint8_t> staged_;  ///< read buffer; [0, filled_) valid.
  std::size_t filled_ = 0;
  std::size_t consumed_ = 0;  ///< staged_ bytes already decoded.
  std::vector<std::uint8_t> outbound_;
  std::size_t sent_ = 0;  ///< outbound_ bytes already written.
};

/// A listening AF_UNIX socket at `path`.  A socket already at `path` (a
/// stale one from a killed owner) is unlinked and replaced; any other
/// file there is left alone and construction throws TransportError naming
/// the path.  The destructor unlinks the listener's socket.
class StreamListener {
 public:
  explicit StreamListener(const std::string& path);
  ~StreamListener();

  StreamListener(const StreamListener&) = delete;
  StreamListener& operator=(const StreamListener&) = delete;

  /// The fd of one pending connection, or -1 when none is queued.
  [[nodiscard]] int accept_fd();

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  int fd_;
  std::string path_;
};

/// The fd of a new connection to the listener at `path`.  Retries for up
/// to `timeout_ms` while that listener is still booting; throws
/// TransportError on timeout or refusal.
[[nodiscard]] int connect_stream(const std::string& path, int timeout_ms);

/// Sleeps until one of `streams` is readable (or writable while it has
/// queued bytes), `listener` (when given) has a connection pending, or
/// `timeout_ms` passes.  Returns true when anything is ready.
bool wait_ready(const std::vector<const FrameStream*>& streams,
                int timeout_ms, const StreamListener* listener = nullptr);

}  // namespace mwr::parallel::transport
