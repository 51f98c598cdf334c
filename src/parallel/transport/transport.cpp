#include "parallel/transport/transport.hpp"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

#include "obs/registry.hpp"

namespace mwr::parallel::transport {

namespace {
// Fabric telemetry across every endpoint in the process: how many frames
// and bytes crossed the seam, and how many writes the batching collapsed
// them into (frames_sent / flush_writes is the batching factor the CI
// transport artifact reports).
struct TransportMetrics {
  obs::Counter& frames_sent;
  obs::Counter& frames_received;
  obs::Counter& bytes_sent;
  obs::Counter& flush_writes;

  TransportMetrics()
      : frames_sent(obs::MetricsRegistry::global().counter(
            "transport.frames_sent")),
        frames_received(obs::MetricsRegistry::global().counter(
            "transport.frames_received")),
        bytes_sent(
            obs::MetricsRegistry::global().counter("transport.bytes_sent")),
        flush_writes(obs::MetricsRegistry::global().counter(
            "transport.flush_writes")) {}
};

TransportMetrics& transport_metrics() {
  static TransportMetrics metrics;
  return metrics;
}

// Buffered bytes beyond which send() flushes that peer inline.
constexpr std::size_t kFlushThresholdBytes = 32 * 1024;

// Drain reads pull whatever the kernel has buffered, up to this much per
// syscall, into the per-peer decode buffer.
constexpr std::size_t kReadChunkBytes = 64 * 1024;
}  // namespace

std::shared_ptr<UdsFabric> UdsFabric::create(std::size_t processes,
                                             std::size_t global_ranks) {
  if (processes < 1) throw TransportError("uds fabric needs >= 1 process");
  auto fabric = std::shared_ptr<UdsFabric>(new UdsFabric());
  fabric->processes_ = processes;
  fabric->global_ranks_ = global_ranks;
  fabric->fds_.assign(processes * processes, -1);
  for (std::size_t i = 0; i < processes; ++i) {
    for (std::size_t j = i + 1; j < processes; ++j) {
      int sv[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
        throw TransportError(std::string("socketpair: ") +
                             std::strerror(errno));
      fabric->fds_[i * processes + j] = sv[0];
      fabric->fds_[j * processes + i] = sv[1];
    }
  }
  return fabric;
}

UdsFabric::~UdsFabric() { close_all(); }

void UdsFabric::close_all() noexcept {
  for (int& fd : fds_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

void UdsFabric::claim(std::size_t index) noexcept {
  for (std::size_t self = 0; self < processes_; ++self) {
    if (self == index) continue;
    for (std::size_t peer = 0; peer < processes_; ++peer) {
      int& fd = fds_[self * processes_ + peer];
      if (fd >= 0) {
        ::close(fd);
        fd = -1;
      }
    }
  }
}

struct Endpoint::PeerDecode {
  std::vector<std::uint8_t> staged;
  std::size_t consumed = 0;
  bool hello_seen = false;
};

Endpoint::Endpoint(std::shared_ptr<UdsFabric> fabric, std::size_t index)
    : fabric_(std::move(fabric)),
      processes_(fabric_->processes()),
      index_(index) {
  fabric_->claim(index);
  buffers_.reserve(processes_);
  decode_.reserve(processes_);
  for (std::size_t p = 0; p < processes_; ++p) {
    buffers_.push_back(std::make_unique<PeerBuffer>());
    decode_.push_back(std::make_unique<PeerDecode>());
  }
  for (std::size_t p = 0; p < processes_; ++p) {
    if (p == index_) continue;
    send(p, WireFrame::control(
                FrameKind::kHello,
                geometry_fingerprint(fabric_->global_ranks_, processes_)));
  }
  flush();
}

Endpoint::~Endpoint() = default;

void Endpoint::send(std::size_t peer, const WireFrame& frame) {
  if (peer >= processes_ || peer == index_)
    throw TransportError("send to invalid peer " + std::to_string(peer));
  throw_if_aborted();
  PeerBuffer& buffer = *buffers_[peer];
  util::MutexLock lock(buffer.mutex);
  encode_frame(frame, buffer.bytes);
  transport_metrics().frames_sent.add(1);
  if (buffer.bytes.size() >= kFlushThresholdBytes) {
    flush_peer(buffer, peer);
  }
}

void Endpoint::flush() {
  for (std::size_t peer = 0; peer < processes_; ++peer) {
    if (peer == index_) continue;
    PeerBuffer& buffer = *buffers_[peer];
    util::MutexLock lock(buffer.mutex);
    flush_peer(buffer, peer);
  }
}

void Endpoint::flush_peer(PeerBuffer& buffer, std::size_t peer) {
  if (buffer.bytes.empty()) return;
  // The batch lock stays held across write_bytes: socket writes for one
  // peer are serialized here, never interleaved mid-frame.
  write_bytes(peer, buffer.bytes.data(), buffer.bytes.size());
  transport_metrics().bytes_sent.add(buffer.bytes.size());
  transport_metrics().flush_writes.add(1);
  buffer.bytes.clear();
}

void Endpoint::write_bytes(std::size_t peer, const std::uint8_t* data,
                           std::size_t size) {
  const int fd = fabric_->fd(index_, peer);
  if (fd < 0) throw TransportError("peer " + std::to_string(peer) + " closed");
  std::size_t written = 0;
  while (written < size) {
    throw_if_aborted();
    // MSG_NOSIGNAL: a dead peer yields EPIPE instead of killing the
    // process with SIGPIPE.
    const ssize_t n =
        ::send(fd, data + written, size - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw TransportError("send to peer " + std::to_string(peer) + ": " +
                           std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
}

bool Endpoint::recv(std::size_t peer, WireFrame& out) {
  const int fd = fabric_->fd(index_, peer);
  PeerDecode& dec = *decode_[peer];
  for (;;) {
    const std::size_t used = decode_frame(dec.staged.data() + dec.consumed,
                                          dec.staged.size() - dec.consumed,
                                          out);
    if (used != 0) {
      dec.consumed += used;
      if (dec.consumed == dec.staged.size()) {
        dec.staged.clear();
        dec.consumed = 0;
      }
      if (!dec.hello_seen) {
        if (out.kind != FrameKind::kHello ||
            out.value !=
                geometry_fingerprint(fabric_->global_ranks_, processes_))
          throw TransportError("uds handshake mismatch with peer " +
                               std::to_string(peer));
        dec.hello_seen = true;
        continue;  // handshake consumed; fetch the first real frame
      }
      if (out.kind == FrameKind::kShutdown) return false;
      transport_metrics().frames_received.add(1);
      return true;
    }
    throw_if_aborted();
    if (fd < 0)
      throw TransportError("peer " + std::to_string(peer) + " closed");
    const std::size_t old = dec.staged.size();
    dec.staged.resize(old + kReadChunkBytes);
    const ssize_t n = ::recv(fd, dec.staged.data() + old, kReadChunkBytes, 0);
    if (n <= 0) {
      dec.staged.resize(old);
      if (n < 0 && errno == EINTR) continue;
      // 0 = EOF without a kShutdown frame: the peer died (or a local
      // abort shut the pair down) — either way, the abort path.
      throw_if_aborted();
      throw TransportError("peer " + std::to_string(peer) +
                           " died mid-stream (EOF before shutdown)");
    }
    dec.staged.resize(old + static_cast<std::size_t>(n));
  }
}

void Endpoint::abort(const std::string& reason) {
  {
    util::MutexLock lock(abort_mutex_);
    if (abort_requested_.load(std::memory_order_relaxed)) return;
    abort_reason_ = reason;
    abort_requested_.store(true, std::memory_order_release);
  }
  // SHUT_RDWR both wakes this process's blocked reads (they see EOF) and
  // shows every peer the same EOF, which their drain threads turn into a
  // world abort.  The reason string cannot cross a closed socket; peers
  // report the generic dead-peer message.
  for (std::size_t peer = 0; peer < processes_; ++peer) {
    if (peer == index_) continue;
    const int fd = fabric_->fd(index_, peer);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
}

void Endpoint::throw_if_aborted() const {
  if (!abort_requested_.load(std::memory_order_acquire)) return;
  util::MutexLock lock(abort_mutex_);
  throw TransportError(abort_reason_.empty() ? std::string("world aborted")
                                             : abort_reason_);
}

}  // namespace mwr::parallel::transport
