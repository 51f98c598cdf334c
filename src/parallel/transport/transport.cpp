#include "parallel/transport/transport.hpp"

#include <iterator>
#include <optional>
#include <tuple>
#include <utility>

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
}  // namespace

std::shared_ptr<UdsFabric> UdsFabric::create(std::size_t processes,
                                             std::size_t global_ranks) {
  if (processes < 1) throw TransportError("uds fabric needs >= 1 process");
  auto fabric = std::shared_ptr<UdsFabric>(new UdsFabric());
  fabric->processes_ = processes;
  fabric->global_ranks_ = global_ranks;
  fabric->streams_.resize(processes * processes);
  for (std::size_t i = 0; i < processes; ++i) {
    for (std::size_t j = i + 1; j < processes; ++j) {
      std::tie(fabric->streams_[i * processes + j],
               fabric->streams_[j * processes + i]) =
          FrameStream::connected_pair();
    }
  }
  return fabric;
}

std::vector<std::unique_ptr<FrameStream>> UdsFabric::claim(std::size_t index) {
  std::vector<std::unique_ptr<FrameStream>> row(
      std::make_move_iterator(streams_.begin() + index * processes_),
      std::make_move_iterator(streams_.begin() + (index + 1) * processes_));
  close_all();
  return row;
}

Endpoint::Endpoint(std::shared_ptr<UdsFabric> fabric, std::size_t index)
    : processes_(fabric->processes()),
      index_(index),
      hello_(geometry_fingerprint(fabric->global_ranks_, processes_)) {
  std::vector<std::unique_ptr<FrameStream>> row = fabric->claim(index);
  peers_.resize(processes_);
  for (std::size_t p = 0; p < processes_; ++p) {
    if (p == index_) continue;
    peers_[p] = std::make_unique<Peer>(std::move(row[p]));
    send(p, WireFrame::control(FrameKind::kHello, hello_));
  }
  flush();
}

Endpoint::~Endpoint() = default;

void Endpoint::send(std::size_t peer, const WireFrame& frame) {
  if (peer >= processes_ || peer == index_)
    throw TransportError("send to invalid peer " + std::to_string(peer));
  throw_if_aborted();
  Peer& channel = *peers_[peer];
  util::MutexLock lock(channel.write_mutex);
  channel.stream->queue_frame(frame);
  transport_metrics().frames_sent.add(1);
  if (channel.stream->outbound_bytes() >= kFlushThresholdBytes)
    flush_peer(channel, peer);
}

void Endpoint::flush() {
  for (std::size_t peer = 0; peer < processes_; ++peer) {
    if (peer == index_) continue;
    Peer& channel = *peers_[peer];
    util::MutexLock lock(channel.write_mutex);
    flush_peer(channel, peer);
  }
}

void Endpoint::flush_peer(Peer& channel, std::size_t peer) {
  const std::size_t bytes = channel.stream->outbound_bytes();
  if (bytes == 0) return;
  throw_if_aborted();
  if (!channel.stream->write_all()) {
    // A local abort shut the socket down, or the peer died.
    throw_if_aborted();
    throw TransportError("send to peer " + std::to_string(peer) +
                         ": connection closed");
  }
  transport_metrics().bytes_sent.add(bytes);
  transport_metrics().flush_writes.add(1);
}

bool Endpoint::recv(std::size_t peer, WireFrame& out) {
  Peer& channel = *peers_[peer];
  for (;;) {
    std::optional<WireFrame> frame;
    try {
      frame = channel.stream->recv_frame();
    } catch (const std::runtime_error&) {
      throw_if_aborted();
      throw;
    }
    if (!frame) {
      // EOF without a kShutdown frame: the peer died (or a local abort
      // shut the pair down) — either way, the abort path.
      throw_if_aborted();
      throw TransportError("peer " + std::to_string(peer) +
                           " died mid-stream (EOF before shutdown)");
    }
    if (!channel.hello_seen) {
      if (frame->kind != FrameKind::kHello || frame->value != hello_)
        throw TransportError("uds handshake mismatch with peer " +
                             std::to_string(peer));
      channel.hello_seen = true;
      continue;  // handshake consumed; fetch the first real frame
    }
    if (frame->kind == FrameKind::kShutdown) return false;
    transport_metrics().frames_received.add(1);
    out = *std::move(frame);
    return true;
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
  for (const std::unique_ptr<Peer>& channel : peers_) {
    if (channel) channel->stream->shutdown();
  }
}

void Endpoint::throw_if_aborted() const {
  if (!abort_requested_.load(std::memory_order_acquire)) return;
  util::MutexLock lock(abort_mutex_);
  throw TransportError(abort_reason_.empty() ? std::string("world aborted")
                                             : abort_reason_);
}

}  // namespace mwr::parallel::transport
