#include "serve/control_loop.hpp"

#include <cstdio>
#include <deque>
#include <exception>
#include <stdexcept>
#include <utility>

#include "parallel/transport/frame_stream.hpp"
#include "serve/control.hpp"
#include "serve/control_socket.hpp"
#include "serve/server.hpp"
#include "util/timer.hpp"

namespace mwr::serve {

using parallel::transport::FrameKind;
using parallel::transport::WireFrame;

namespace {

/// Queued bytes at which a batch of replies is written before it ends.
constexpr std::size_t kFlushAtBytes = 64 * 1024;
/// Longest the loop keeps writing queued replies after it decides to exit.
constexpr double kExitFlushSeconds = 5.0;
/// poll() timeout while nothing is resident.
constexpr int kIdlePollMs = 50;

}  // namespace

struct ControlLoop::Peer {
  std::unique_ptr<ControlConn> conn;
  std::deque<WireFrame> inbox;  ///< read, not yet answered.
  bool dead = false;
};

ControlLoop::ControlLoop(CampaignServer& server,
                         parallel::transport::StreamListener& listener,
                         ControlLoopOptions options)
    : server_(&server), listener_(&listener), options_(options) {}

ControlLoop::~ControlLoop() = default;

WireFrame ControlLoop::reply_to(const WireFrame& frame) {
  switch (frame.kind) {
    case FrameKind::kSubmit: {
      const SubmitRequest request = decode_submit_request(frame);
      SubmitReply reply;
      if (!shutting_down_) {
        try {
          if (const auto id = server_->submit(request)) {
            reply.accepted = true;
            reply.campaign_id = *id;
          }
        } catch (const std::invalid_argument& error) {
          std::fprintf(stderr, "mwr_served: rejecting submission: %s\n",
                       error.what());
        }
      }
      reply.resident = server_->resident();
      return encode_submit_reply(reply);
    }
    case FrameKind::kStatus: {
      const std::uint64_t id = decode_status_request(frame);
      return encode_status_reply(id, server_->status(id));
    }
    case FrameKind::kResult:
      return encode_result_reply(server_->result(decode_result_request(frame)));
    case FrameKind::kCheckpoint: {
      CheckpointReply reply;
      if (!server_->config().checkpoint_dir.empty())
        reply = server_->checkpoint_all();
      return encode_checkpoint_reply(reply);
    }
    case FrameKind::kShutdown:
      shutting_down_ = true;
      return encode_shutdown_reply(server_->resident());
    default:
      throw std::runtime_error("unexpected control frame kind");
  }
}

bool ControlLoop::answer(Peer& peer, bool mid_sweep) {
  try {
    while (!peer.inbox.empty()) {
      const WireFrame& frame = peer.inbox.front();
      if (mid_sweep && frame.kind == FrameKind::kCheckpoint) {
        // Checkpoints serialize sessions the engine is stepping: hold it,
        // and everything after it on this connection, until the join.
        ++stats_.checkpoints_parked;
        break;
      }
      peer.conn->queue_frame(reply_to(frame));
      peer.inbox.pop_front();
      if (mid_sweep) ++stats_.frames_mid_sweep;
      if (peer.conn->outbound_bytes() >= kFlushAtBytes &&
          !peer.conn->flush())
        return false;
      if (peer.conn->outbound_bytes() > ControlConn::kMaxOutboundBytes) {
        std::fprintf(stderr,
                     "mwr_served: dropping connection: over %zu unread "
                     "reply bytes\n",
                     ControlConn::kMaxOutboundBytes);
        return false;
      }
    }
    return peer.conn->outbound_bytes() == 0 || peer.conn->flush();
  } catch (const std::exception& error) {
    // A malformed control stream (bad payload shape, unknown kind)
    // poisons only its own connection: drop it and keep every resident
    // campaign running.
    std::fprintf(stderr, "mwr_served: dropping connection: %s\n",
                 error.what());
    return false;
  }
}

bool ControlLoop::serve(bool mid_sweep) {
  bool active = false;
  for (int fd; (fd = listener_->accept_fd()) >= 0;) {
    peers_.push_back(std::make_unique<Peer>());
    peers_.back()->conn = std::make_unique<ControlConn>(fd);
    active = true;
  }
  for (const std::unique_ptr<Peer>& peer : peers_) {
    // Requests behind a parked CHECKPOINT stay in the kernel buffer.
    if (!peer->inbox.empty()) {
      peer->dead = !answer(*peer, mid_sweep);
      continue;
    }
    std::vector<WireFrame> frames;
    bool alive;
    try {
      alive = peer->conn->pump(frames);
    } catch (const std::exception& error) {
      // Garbage bytes or an implausible frame length.
      std::fprintf(stderr, "mwr_served: dropping connection: %s\n",
                   error.what());
      peer->dead = true;
      continue;
    }
    active |= !frames.empty();
    for (WireFrame& frame : frames) peer->inbox.push_back(std::move(frame));
    // A closed peer's last frames are still answered; then it goes.
    peer->dead = !answer(*peer, mid_sweep) || (!alive && peer->inbox.empty());
  }
  drop_dead_peers();
  return active;
}

void ControlLoop::drop_dead_peers() {
  std::erase_if(peers_, [this](const std::unique_ptr<Peer>& peer) {
    if (peer->dead) ++stats_.peers_dropped;
    return peer->dead;
  });
}

bool ControlLoop::serve_pending() { return serve(/*mid_sweep=*/false); }

bool ControlLoop::run_epoch() {
  if (!server_->run_epoch([this] { (void)serve(/*mid_sweep=*/true); })) {
    (void)serve(/*mid_sweep=*/false);
    return false;
  }
  // Joined: answer what waited behind a CHECKPOINT, and keep draining
  // replies the socket did not take during the sweep.
  for (const std::unique_ptr<Peer>& peer : peers_) {
    if (!peer->inbox.empty() || peer->conn->outbound_bytes() > 0)
      peer->dead = !answer(*peer, /*mid_sweep=*/false);
  }
  drop_dead_peers();
  return true;
}

void ControlLoop::run() {
  util::WallTimer idle_timer;
  bool stall_announced = false;
  for (;;) {
    const bool stalled = options_.stall_after_epochs != 0 &&
                         server_->epochs() >= options_.stall_after_epochs;
    const bool stepping = server_->resident() > 0 && !stalled;
    if (stepping) {
      (void)run_epoch();
      idle_timer.restart();
    } else if (serve_pending()) {
      idle_timer.restart();
    }
    if (shutting_down_ && server_->resident() == 0) break;
    if (stepping) continue;

    if (stalled && server_->resident() > 0 && !stall_announced) {
      std::fprintf(stderr,
                   "mwr_served: stalled after %llu epochs (%zu resident)\n",
                   static_cast<unsigned long long>(server_->epochs()),
                   server_->resident());
      stall_announced = true;
    }
    if (options_.idle_exit_seconds > 0.0 &&
        idle_timer.elapsed_seconds() >= options_.idle_exit_seconds)
      break;
    std::vector<const parallel::transport::FrameStream*> conns;
    conns.reserve(peers_.size());
    for (const std::unique_ptr<Peer>& peer : peers_)
      conns.push_back(peer->conn.get());
    (void)parallel::transport::wait_ready(conns, kIdlePollMs, listener_);
  }
  flush_before_exit();
}

void ControlLoop::flush_before_exit() {
  const util::WallTimer timer;
  for (;;) {
    (void)serve(/*mid_sweep=*/false);
    std::vector<const parallel::transport::FrameStream*> pending;
    for (const std::unique_ptr<Peer>& peer : peers_) {
      if (peer->conn->outbound_bytes() > 0) pending.push_back(peer->conn.get());
    }
    if (pending.empty() || timer.elapsed_seconds() >= kExitFlushSeconds)
      return;
    (void)parallel::transport::wait_ready(pending, kIdlePollMs, listener_);
  }
}

}  // namespace mwr::serve
