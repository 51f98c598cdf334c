// The campaign server's Unix-domain control socket.
//
// A control connection is a parallel::transport::FrameStream under the
// name the serve API and its clients spell: the stream owns the framing,
// the bounded read buffer and every socket syscall, so src/serve makes no
// raw IPC call.  Everything above this layer (serve/control,
// serve/server, tools/mwr_served) speaks WireFrames only.
//
// Two ways out: clients use send_frame, a blocking write-all; the daemon
// queues replies with queue_frame and writes them with flush, which never
// blocks, so one peer that does not read cannot stall the others.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "parallel/transport/frame_stream.hpp"

namespace mwr::serve {

/// One accepted (or connected) control-plane stream.
class ControlConn : public parallel::transport::FrameStream {
 public:
  using FrameStream::FrameStream;

  /// Queued reply bytes a peer may leave unread.  The daemon drops a
  /// connection whose outbound queue grows past it (a client that keeps
  /// sending requests but never reads the replies).  It is also the
  /// stream's bound on one inbound frame: recv_frame and pump throw as
  /// soon as a length prefix announces more.
  static constexpr std::size_t kMaxOutboundBytes = kMaxFrameBytes;
};

/// The daemon's listening socket.  Binding unlinks any stale socket file
/// at `path` first; the destructor unlinks it again.
class ControlListener {
 public:
  explicit ControlListener(const std::string& path) : listener_(path) {}

  /// Accepts one pending connection, or nullptr when none is queued.
  std::unique_ptr<ControlConn> accept_one() {
    const int fd = listener_.accept_fd();
    return fd < 0 ? nullptr : std::make_unique<ControlConn>(fd);
  }

  /// Sleeps until the listener or one of `conns` is readable, a
  /// connection with queued replies is writable, or `timeout_ms`
  /// elapses.  Returns true when anything is ready.
  bool wait_ready(const std::vector<ControlConn*>& conns,
                  int timeout_ms) const {
    return parallel::transport::wait_ready({conns.begin(), conns.end()},
                                           timeout_ms, &listener_);
  }

  [[nodiscard]] const std::string& path() const noexcept {
    return listener_.path();
  }

 private:
  parallel::transport::StreamListener listener_;
};

/// Client side: connects to a daemon's socket.  Retries for up to
/// `timeout_ms` while the socket file does not exist yet (daemon still
/// booting); throws std::runtime_error on timeout or refusal.
inline std::unique_ptr<ControlConn> connect_control(const std::string& path,
                                                    int timeout_ms = 5000) {
  return std::make_unique<ControlConn>(
      parallel::transport::connect_stream(path, timeout_ms));
}

}  // namespace mwr::serve
