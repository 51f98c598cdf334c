#include "parallel/transport/frame_stream.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

namespace mwr::parallel::transport {

namespace {

/// Outbound capacity a drained stream keeps for its next frames.
constexpr std::size_t kRetainedOutboundBytes = 64 * 1024;

[[noreturn]] void raise_errno(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

void fill_addr(const std::string& path, sockaddr_un& addr) {
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path))
    throw TransportError("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
}

/// Throws once `size` staged bytes start with a length prefix larger than
/// FrameStream::kMaxFrameBytes, before the frame's body is buffered.
void check_announced_length(const std::uint8_t* data, std::size_t size) {
  if (size < 4) return;
  std::uint32_t body;
  std::memcpy(&body, data, sizeof(body));
  if (body > FrameStream::kMaxFrameBytes)
    throw TransportError("peer announced a " + std::to_string(body) +
                         "-byte frame (bound " +
                         std::to_string(FrameStream::kMaxFrameBytes) + ")");
}

}  // namespace

FrameStream::FrameStream(int fd) : fd_(fd) {}

FrameStream::~FrameStream() {
  if (fd_ >= 0) ::close(fd_);
}

std::pair<std::unique_ptr<FrameStream>, std::unique_ptr<FrameStream>>
FrameStream::connected_pair() {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
    raise_errno("socketpair");
  return {std::make_unique<FrameStream>(sv[0]),
          std::make_unique<FrameStream>(sv[1])};
}

void FrameStream::queue_frame(const WireFrame& frame) {
  encode_frame(frame, outbound_);
}

bool FrameStream::flush() { return write_queue(/*blocking=*/false); }

bool FrameStream::write_all() { return write_queue(/*blocking=*/true); }

bool FrameStream::send_frame(const WireFrame& frame) {
  queue_frame(frame);
  return write_all();
}

bool FrameStream::write_queue(bool blocking) {
  while (sent_ < outbound_.size()) {
    const ssize_t n = ::send(fd_, outbound_.data() + sent_,
                             outbound_.size() - sent_,
                             MSG_NOSIGNAL | (blocking ? 0 : MSG_DONTWAIT));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (!blocking && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      raise_errno("send");
    }
    sent_ += static_cast<std::size_t>(n);
  }
  if (sent_ == outbound_.size()) {
    // Drained.  A burst of large frames leaves a large buffer behind;
    // give it back rather than hold it for the stream's lifetime.
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

bool FrameStream::fill_buffer(bool blocking) {
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

std::optional<WireFrame> FrameStream::recv_frame(int timeout_ms) {
  // Read the clock only once a wait is due: a drain thread decodes most
  // frames from bytes already staged.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  for (;;) {
    WireFrame frame;
    const std::size_t used =
        decode_frame(staged_.data() + consumed_, filled_ - consumed_, frame);
    if (used != 0) {
      consumed_ += used;
      return frame;
    }
    check_announced_length(staged_.data() + consumed_, filled_ - consumed_);
    if (timeout_ms >= 0) {
      const auto now = std::chrono::steady_clock::now();
      if (!deadline) deadline = now + std::chrono::milliseconds(timeout_ms);
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(*deadline - now);
      pollfd readable{fd_, POLLIN, 0};
      int n;
      do {
        n = ::poll(&readable, 1, static_cast<int>(std::max<long long>(
                                     left.count(), 0)));
      } while (n < 0 && errno == EINTR);
      if (n < 0) raise_errno("poll");
      if (n == 0)
        throw TransportError("no frame within " + std::to_string(timeout_ms) +
                             " ms");
    }
    if (!fill_buffer(/*blocking=*/true)) {
      if (consumed_ != filled_)
        throw TransportError("EOF mid-frame (peer died)");
      return std::nullopt;
    }
  }
}

bool FrameStream::pump(std::vector<WireFrame>& out) {
  const bool alive = fill_buffer(/*blocking=*/false);
  for (;;) {
    WireFrame frame;
    const std::size_t used =
        decode_frame(staged_.data() + consumed_, filled_ - consumed_, frame);
    if (used == 0) break;
    consumed_ += used;
    out.push_back(std::move(frame));
  }
  check_announced_length(staged_.data() + consumed_, filled_ - consumed_);
  // On EOF the decoded frames above still get serviced by the caller,
  // but any bytes left over are a mid-frame truncation from a dead peer
  // and can never complete — report the stream dead rather than let
  // poll() spin hot on an EOF'd fd forever.
  return alive;
}

void FrameStream::shutdown() noexcept { ::shutdown(fd_, SHUT_RDWR); }

StreamListener::StreamListener(const std::string& path) : path_(path) {
  // SOCK_NONBLOCK on the listener makes accept_fd() poll-friendly; the
  // accepted streams themselves stay blocking (pump and flush pass
  // MSG_DONTWAIT per call).
  sockaddr_un addr;
  fill_addr(path, addr);
  // A socket left at the path by a killed owner is replaced; anything else
  // there (a file named by mistake) is never deleted.
  struct stat existing;
  if (::lstat(path.c_str(), &existing) == 0) {
    if (!S_ISSOCK(existing.st_mode))
      throw TransportError("bind " + path +
                           ": path exists and is not a socket");
    ::unlink(path.c_str());
  }
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd_ < 0) raise_errno("socket");
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd_, 128) != 0) {
    const int saved = errno;
    ::close(fd_);
    errno = saved;
    raise_errno("bind/listen " + path);
  }
}

StreamListener::~StreamListener() {
  if (fd_ >= 0) ::close(fd_);
  ::unlink(path_.c_str());
}

int StreamListener::accept_fd() {
  for (;;) {
    const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) return fd;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    raise_errno("accept");
  }
}

int connect_stream(const std::string& path, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  sockaddr_un addr;
  fill_addr(path, addr);
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) raise_errno("socket");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0)
      return fd;
    const int saved = errno;
    ::close(fd);
    // A listener still booting shows up as "no such file" or a bound but
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

bool wait_ready(const std::vector<const FrameStream*>& streams,
                int timeout_ms, const StreamListener* listener) {
  std::vector<pollfd> fds;
  fds.reserve(streams.size() + 1);
  if (listener != nullptr) fds.push_back(pollfd{listener->fd(), POLLIN, 0});
  for (const FrameStream* stream : streams) {
    const short events = stream->outbound_bytes() > 0
                             ? static_cast<short>(POLLIN | POLLOUT)
                             : static_cast<short>(POLLIN);
    fds.push_back(pollfd{stream->fd(), events, 0});
  }
  for (;;) {
    const int n = ::poll(fds.data(), fds.size(), timeout_ms);
    if (n >= 0) return n > 0;
    if (errno == EINTR) continue;
    raise_errno("poll");
  }
}

}  // namespace mwr::parallel::transport
