// The campaign server's Unix-domain control socket.
//
// A control connection is a parallel::transport::FrameStream under the
// name the serve API and its clients spell: the stream owns the framing,
// the bounded read buffer and every socket syscall, so src/serve makes no
// raw IPC call.  The daemon listens on a transport::StreamListener and
// sleeps in transport::wait_ready.  Everything above this layer (serve/control,
// serve/server, tools/mwr_served) speaks WireFrames only.
//
// Two ways out: clients use send_frame, a blocking write-all; the daemon
// queues replies with queue_frame and writes them with flush, which never
// blocks, so one peer that does not read cannot stall the others.
#pragma once

#include <memory>
#include <string>

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

/// Client side: connects to a daemon's socket.  Retries for up to
/// `timeout_ms` while the socket file does not exist yet (daemon still
/// booting); throws std::runtime_error on timeout or refusal.
inline std::unique_ptr<ControlConn> connect_control(const std::string& path,
                                                    int timeout_ms = 5000) {
  return std::make_unique<ControlConn>(
      parallel::transport::connect_stream(path, timeout_ms));
}

}  // namespace mwr::serve
