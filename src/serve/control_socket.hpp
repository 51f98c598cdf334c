// The campaign server's Unix-domain control socket.
//
// This header is plain C++ (fds as ints, no <sys/...> types); every raw
// IPC syscall — socket/bind/listen/accept/connect/send/recv/poll — lives
// in control_socket.cpp, the single file the raw-ipc lint rule
// whitelists for src/serve.  Everything above this layer (serve/control,
// serve/server, tools/mwr_served) speaks WireFrames only.
//
// Framing: the stream carries back-to-back MWRW frames.  ControlConn
// accumulates bytes per connection and yields whole decoded frames;
// partial frames stay staged until more bytes arrive (decode_frame's
// zero-consumed contract).  Two ways out: clients use send_frame, a
// blocking write-all; the daemon queues replies with queue_frame and
// writes them with flush, which never blocks, so one peer that does not
// read cannot stall the others.  Both use MSG_NOSIGNAL so a vanished
// peer surfaces as an error, not SIGPIPE.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "parallel/transport/wire.hpp"

namespace mwr::serve {

/// One accepted (or connected) control-plane stream.
class ControlConn {
 public:
  /// Takes ownership of `fd`.
  explicit ControlConn(int fd);
  ~ControlConn();

  ControlConn(const ControlConn&) = delete;
  ControlConn& operator=(const ControlConn&) = delete;

  /// Queued reply bytes a peer may leave unread.  The daemon drops a
  /// connection whose outbound queue grows past it (a client that keeps
  /// sending requests but never reads the replies).  It also bounds one
  /// inbound frame: recv_frame and pump throw as soon as a length prefix
  /// announces more, so a peer cannot pin a large read buffer by
  /// announcing a big frame and trickling it in.
  static constexpr std::size_t kMaxOutboundBytes = std::size_t{4} << 20;

  /// Blocking write-all of one encoded frame.  Returns false when the
  /// peer is gone (EPIPE/ECONNRESET); throws on other errors.
  bool send_frame(const parallel::transport::WireFrame& frame);

  /// Appends one encoded frame to the outbound queue; no I/O.
  void queue_frame(const parallel::transport::WireFrame& frame);
  /// Writes as much of the outbound queue as the socket takes without
  /// blocking.  A fully drained queue gives back its buffer.  Returns
  /// false when the peer is gone; throws on other errors.
  bool flush();
  /// Queued bytes not yet written.
  [[nodiscard]] std::size_t outbound_bytes() const noexcept {
    return outbound_.size() - sent_;
  }

  /// Blocks until one whole frame arrives; nullopt on orderly EOF.
  /// Throws std::runtime_error on a mid-frame EOF, a socket error, a
  /// frame announced past kMaxOutboundBytes, or when `timeout_ms` (>= 0)
  /// passes without a whole frame.
  std::optional<parallel::transport::WireFrame> recv_frame(
      int timeout_ms = -1);

  /// Non-blocking drain: appends every frame currently decodable from
  /// the kernel buffer to `out`; throws, like recv_frame, on a malformed
  /// or oversized frame.  Returns false when the peer closed —
  /// including a close mid-frame, whose truncated tail can never
  /// complete; frames appended in the same call are still valid and
  /// should be serviced before dropping the connection.
  bool pump(std::vector<parallel::transport::WireFrame>& out);

  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  bool fill_buffer(bool blocking);  ///< false on EOF.

  int fd_;
  std::vector<std::uint8_t> staged_;  ///< read buffer; [0, filled_) valid.
  std::size_t filled_ = 0;
  std::size_t consumed_ = 0;          ///< staged_ bytes already decoded.
  std::vector<std::uint8_t> outbound_;
  std::size_t sent_ = 0;  ///< outbound_ bytes already written.
};

/// The daemon's listening socket.  Binding unlinks any stale socket file
/// at `path` first; the destructor unlinks it again.
class ControlListener {
 public:
  explicit ControlListener(const std::string& path);
  ~ControlListener();

  ControlListener(const ControlListener&) = delete;
  ControlListener& operator=(const ControlListener&) = delete;

  /// Accepts one pending connection, or nullptr when none is queued.
  std::unique_ptr<ControlConn> accept_one();

  /// Sleeps until the listener or one of `conns` is readable, a
  /// connection with queued replies is writable, or `timeout_ms`
  /// elapses.  Returns true when anything is ready.
  bool wait_ready(const std::vector<ControlConn*>& conns,
                  int timeout_ms) const;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  int fd_;
  std::string path_;
};

/// Client side: connects to a daemon's socket.  Retries for up to
/// `timeout_ms` while the socket file does not exist yet (daemon still
/// booting); throws std::runtime_error on timeout or refusal.
std::unique_ptr<ControlConn> connect_control(const std::string& path,
                                             int timeout_ms = 5000);

}  // namespace mwr::serve
