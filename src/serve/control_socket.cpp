// The only file in src/serve allowed to touch raw IPC syscalls — see the
// raw-ipc whitelist in tools/mwr_lint.py.  Keep every socket(2)-family
// call here; the rest of the subsystem trades in WireFrames.
#include "serve/control_socket.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace mwr::serve {

using parallel::transport::WireFrame;

namespace {

constexpr std::size_t kReadChunkBytes = 64 * 1024;
/// Outbound capacity a drained connection keeps for its next replies.
constexpr std::size_t kRetainedOutboundBytes = 64 * 1024;

[[noreturn]] void raise_errno(const std::string& what) {
  throw std::runtime_error("serve control socket: " + what + ": " +
                           std::strerror(errno));
}

void fill_addr(const std::string& path, sockaddr_un& addr) {
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path))
    throw std::runtime_error("serve control socket: path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
}

/// Throws once `size` staged bytes start with a length prefix larger than
/// ControlConn::kMaxOutboundBytes, before the frame's body is buffered.
void check_announced_length(const std::uint8_t* data, std::size_t size) {
  if (size < 4) return;
  std::uint32_t body;
  std::memcpy(&body, data, sizeof(body));
  if (body > ControlConn::kMaxOutboundBytes)
    throw std::runtime_error("serve control socket: peer announced a " +
                             std::to_string(body) + "-byte frame (bound " +
                             std::to_string(ControlConn::kMaxOutboundBytes) +
                             ")");
}

}  // namespace

ControlConn::ControlConn(int fd) : fd_(fd) {}

ControlConn::~ControlConn() {
  if (fd_ >= 0) ::close(fd_);
}

bool ControlConn::send_frame(const WireFrame& frame) {
  std::vector<std::uint8_t> bytes;
  parallel::transport::encode_frame(frame, bytes);
  std::size_t written = 0;
  while (written < bytes.size()) {
    // MSG_NOSIGNAL: a dead peer yields EPIPE instead of SIGPIPE.
    const ssize_t n = ::send(fd_, bytes.data() + written,
                             bytes.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      raise_errno("send");
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

void ControlConn::queue_frame(const WireFrame& frame) {
  parallel::transport::encode_frame(frame, outbound_);
}

bool ControlConn::flush() {
  while (sent_ < outbound_.size()) {
    const ssize_t n = ::send(fd_, outbound_.data() + sent_,
                             outbound_.size() - sent_,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      raise_errno("send");
    }
    sent_ += static_cast<std::size_t>(n);
  }
  if (sent_ == outbound_.size()) {
    // Drained.  A burst of large replies leaves a large buffer behind;
    // give it back rather than hold it for the connection's lifetime.
    if (outbound_.capacity() > kRetainedOutboundBytes) {
      std::vector<std::uint8_t>().swap(outbound_);
    } else {
      outbound_.clear();
    }
    sent_ = 0;
  } else if (sent_ > outbound_.size() / 2) {
    // Mostly written: drop the written prefix so a queue that never
    // fully drains does not keep growing at the front.
    outbound_.erase(outbound_.begin(),
                    outbound_.begin() + static_cast<std::ptrdiff_t>(sent_));
    sent_ = 0;
  }
  return true;
}

bool ControlConn::fill_buffer(bool blocking) {
  if (consumed_ == filled_) {
    consumed_ = 0;
    filled_ = 0;
  } else if (consumed_ > 0 && staged_.size() - filled_ < kReadChunkBytes) {
    // Keep only the partial frame: the decoded prefix is dead weight.
    std::memmove(staged_.data(), staged_.data() + consumed_,
                 filled_ - consumed_);
    filled_ -= consumed_;
    consumed_ = 0;
  }
  // Grows (and zero-fills) only when a frame outgrows the buffer; every
  // other read reuses it as is.
  if (staged_.size() - filled_ < kReadChunkBytes)
    staged_.resize(filled_ + kReadChunkBytes);
  for (;;) {
    const ssize_t n = ::recv(fd_, staged_.data() + filled_,
                             staged_.size() - filled_,
                             blocking ? 0 : MSG_DONTWAIT);
    if (n > 0) {
      filled_ += static_cast<std::size_t>(n);
      return true;
    }
    if (n == 0) return false;  // orderly EOF
    if (errno == EINTR) continue;
    if (!blocking && (errno == EAGAIN || errno == EWOULDBLOCK))
      return true;  // nothing buffered right now
    if (errno == ECONNRESET) return false;
    raise_errno("recv");
  }
}

std::optional<WireFrame> ControlConn::recv_frame(int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(std::max(timeout_ms, 0));
  for (;;) {
    WireFrame frame;
    const std::size_t used = parallel::transport::decode_frame(
        staged_.data() + consumed_, filled_ - consumed_, frame);
    if (used != 0) {
      consumed_ += used;
      return frame;
    }
    check_announced_length(staged_.data() + consumed_, filled_ - consumed_);
    if (timeout_ms >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      pollfd readable{fd_, POLLIN, 0};
      int n;
      do {
        n = ::poll(&readable, 1, static_cast<int>(std::max<long long>(
                                     left.count(), 0)));
      } while (n < 0 && errno == EINTR);
      if (n < 0) raise_errno("poll");
      if (n == 0)
        throw std::runtime_error("serve control socket: no frame within " +
                                 std::to_string(timeout_ms) + " ms");
    }
    if (!fill_buffer(/*blocking=*/true)) {
      if (consumed_ != filled_)
        throw std::runtime_error(
            "serve control socket: EOF mid-frame (peer died)");
      return std::nullopt;
    }
  }
}

bool ControlConn::pump(std::vector<WireFrame>& out) {
  const bool alive = fill_buffer(/*blocking=*/false);
  for (;;) {
    WireFrame frame;
    const std::size_t used = parallel::transport::decode_frame(
        staged_.data() + consumed_, filled_ - consumed_, frame);
    if (used == 0) break;
    consumed_ += used;
    out.push_back(std::move(frame));
  }
  check_announced_length(staged_.data() + consumed_, filled_ - consumed_);
  // On EOF the decoded frames above still get serviced by the caller,
  // but any bytes left over are a mid-frame truncation from a dead peer
  // and can never complete — report the connection dead rather than let
  // poll() spin hot on an EOF'd fd forever.
  return alive;
}

ControlListener::ControlListener(const std::string& path) : path_(path) {
  // SOCK_NONBLOCK on the listener makes accept_one() poll-friendly; the
  // accepted connections themselves stay blocking (pump and flush pass
  // MSG_DONTWAIT per call).
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd_ < 0) raise_errno("socket");
  ::unlink(path.c_str());  // stale socket from a killed daemon
  sockaddr_un addr;
  fill_addr(path, addr);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int saved = errno;
    ::close(fd_);
    errno = saved;
    raise_errno("bind " + path);
  }
  if (::listen(fd_, 128) != 0) {
    const int saved = errno;
    ::close(fd_);
    errno = saved;
    raise_errno("listen " + path);
  }
}

ControlListener::~ControlListener() {
  if (fd_ >= 0) ::close(fd_);
  ::unlink(path_.c_str());
}

std::unique_ptr<ControlConn> ControlListener::accept_one() {
  for (;;) {
    const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) return std::make_unique<ControlConn>(fd);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return nullptr;
    raise_errno("accept");
  }
}

bool ControlListener::wait_ready(const std::vector<ControlConn*>& conns,
                                 int timeout_ms) const {
  std::vector<pollfd> fds;
  fds.reserve(conns.size() + 1);
  fds.push_back(pollfd{fd_, POLLIN, 0});
  for (const ControlConn* conn : conns) {
    const short events = conn->outbound_bytes() > 0
                             ? static_cast<short>(POLLIN | POLLOUT)
                             : static_cast<short>(POLLIN);
    fds.push_back(pollfd{conn->fd(), events, 0});
  }
  for (;;) {
    const int n = ::poll(fds.data(), fds.size(), timeout_ms);
    if (n >= 0) return n > 0;
    if (errno == EINTR) continue;
    raise_errno("poll");
  }
}

std::unique_ptr<ControlConn> connect_control(const std::string& path,
                                             int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) raise_errno("socket");
    sockaddr_un addr;
    fill_addr(path, addr);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return std::make_unique<ControlConn>(fd);
    }
    const int saved = errno;
    ::close(fd);
    // A daemon still booting shows up as "no such file" or a bound but
    // not yet listening socket; retry until the deadline.
    if ((saved == ENOENT || saved == ECONNREFUSED) &&
        std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      continue;
    }
    errno = saved;
    raise_errno("connect " + path);
  }
}

}  // namespace mwr::serve
