// The campaign daemon's control loop: answers control frames on every
// connection and steps the resident campaigns, the two overlapped.
//
// Each iteration with resident campaigns runs one CampaignServer epoch.
// Its during_sweep hook, running on the loop's thread while the engine
// steps the campaigns, accepts connections, reads requests, answers them
// and flushes the replies.  SUBMIT, STATUS, RESULT and SHUTDOWN are
// answered there (server.hpp says why that is safe).  A CHECKPOINT parks
// its connection: it and every later request on that connection wait
// for the join, so replies on one connection keep their request order.
// With nothing resident the loop answers requests and sleeps in poll().
//
// Replies never block.  Each connection has an outbound queue
// (ControlConn::queue_frame), written without blocking after every batch
// and drained on POLLOUT, so a client that stops reading one connection
// cannot stall the others.  A peer whose queue passes
// ControlConn::kMaxOutboundBytes is dropped, as is a peer that sends a
// malformed stream or announces a frame larger than that bound.
// Diagnostics (rejected submissions, dropped peers, the stall notice) go
// to stderr.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "parallel/transport/wire.hpp"

namespace mwr::parallel::transport {
class StreamListener;
}  // namespace mwr::parallel::transport

namespace mwr::serve {

class CampaignServer;

struct ControlLoopOptions {
  /// Exit after this long with nothing resident and no control traffic
  /// (0 = run until a SHUTDOWN has drained the server).
  double idle_exit_seconds = 0.0;
  /// Stop stepping campaigns after this many epochs but keep answering
  /// (0 = never).  Lets a test kill a daemon that is mid-campaign.
  std::uint64_t stall_after_epochs = 0;
};

/// What the loop answered during sweeps, and what it dropped.
struct ControlLoopStats {
  std::uint64_t frames_mid_sweep = 0;
  std::uint64_t checkpoints_parked = 0;  ///< CHECKPOINTs held to the join.
  std::uint64_t peers_dropped = 0;       ///< malformed or over the bound.
};

class ControlLoop {
 public:
  /// `server` and `listener` must outlive the loop.
  ControlLoop(CampaignServer& server,
              parallel::transport::StreamListener& listener,
              ControlLoopOptions options = {});
  ~ControlLoop();

  ControlLoop(const ControlLoop&) = delete;
  ControlLoop& operator=(const ControlLoop&) = delete;

  /// Serves until a SHUTDOWN has drained the server, or the idle exit.
  /// Before returning it keeps writing queued replies for a bounded
  /// time, so the SHUTDOWN reply reaches its client.
  void run();

  // The steps run() is made of, public so tests can place requests on
  // either side of an epoch.

  /// Accepts, reads and answers every pending request; no epoch runs.
  /// Returns true when it accepted a connection or answered a frame.
  bool serve_pending();
  /// Runs one epoch, answering requests while the engine steps, then
  /// the requests parked behind a CHECKPOINT.  Returns false when
  /// nothing was resident (the requests were still answered).
  bool run_epoch();

  [[nodiscard]] const ControlLoopStats& stats() const noexcept {
    return stats_;
  }

 private:
  struct Peer;

  /// The reply to one request (throws on a malformed one).
  parallel::transport::WireFrame reply_to(
      const parallel::transport::WireFrame& frame);
  /// Accepts, reads and answers (mid_sweep: up to a CHECKPOINT).
  bool serve(bool mid_sweep);
  /// Answers `peer`'s queued requests and flushes; false = drop it.
  bool answer(Peer& peer, bool mid_sweep);
  void drop_dead_peers();
  void flush_before_exit();

  CampaignServer* server_;
  parallel::transport::StreamListener* listener_;
  ControlLoopOptions options_;
  std::vector<std::unique_ptr<Peer>> peers_;
  bool shutting_down_ = false;
  ControlLoopStats stats_;
};

}  // namespace mwr::serve
