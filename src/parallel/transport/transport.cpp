#include "parallel/transport/transport.hpp"

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
}  // namespace

std::string to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::kShmRing:
      return "shm";
    case TransportKind::kUds:
      return "uds";
  }
  return "?";
}

TransportKind parse_transport_kind(const std::string& name) {
  if (name == "shm" || name == "shm-ring") return TransportKind::kShmRing;
  if (name == "uds" || name == "socket") return TransportKind::kUds;
  throw std::invalid_argument("unknown transport kind: " + name +
                              " (expected shm or uds)");
}

BufferedEndpoint::BufferedEndpoint(std::size_t processes, std::size_t index)
    : processes_(processes), index_(index) {
  buffers_.reserve(processes_);
  for (std::size_t p = 0; p < processes_; ++p) {
    buffers_.push_back(std::make_unique<PeerBuffer>());
  }
}

void BufferedEndpoint::send(std::size_t peer, const WireFrame& frame) {
  if (peer >= processes_ || peer == index_)
    throw TransportError("send to invalid peer " + std::to_string(peer));
  if (abort_requested()) throw TransportError(abort_reason());
  PeerBuffer& buffer = *buffers_[peer];
  util::MutexLock lock(buffer.mutex);
  encode_frame(frame, buffer.bytes);
  transport_metrics().frames_sent.add(1);
  if (buffer.bytes.size() >= kFlushThresholdBytes) {
    flush_peer(buffer, peer);
  }
}

void BufferedEndpoint::flush() {
  for (std::size_t peer = 0; peer < processes_; ++peer) {
    if (peer == index_) continue;
    PeerBuffer& buffer = *buffers_[peer];
    util::MutexLock lock(buffer.mutex);
    flush_peer(buffer, peer);
  }
}

void BufferedEndpoint::flush_peer(PeerBuffer& buffer, std::size_t peer) {
  if (buffer.bytes.empty()) return;
  // The batch lock stays held across write_bytes: backend writes for one
  // peer are serialized here, never interleaved mid-frame.
  write_bytes(peer, buffer.bytes.data(), buffer.bytes.size());
  transport_metrics().bytes_sent.add(buffer.bytes.size());
  transport_metrics().flush_writes.add(1);
  buffer.bytes.clear();
}

void BufferedEndpoint::abort(const std::string& reason) {
  {
    util::MutexLock lock(abort_mutex_);
    if (abort_requested_.load(std::memory_order_relaxed)) return;
    abort_reason_ = reason;
    abort_requested_.store(true, std::memory_order_release);
  }
  abort_fabric(reason);
}

bool BufferedEndpoint::aborted() const { return abort_requested(); }

std::string BufferedEndpoint::abort_reason() const {
  util::MutexLock lock(abort_mutex_);
  return abort_reason_.empty() ? std::string("world aborted") : abort_reason_;
}

namespace detail {
void note_frames_received(std::size_t n) noexcept {
  transport_metrics().frames_received.add(n);
}
}  // namespace detail

}  // namespace mwr::parallel::transport
