// Pipelined sweep client for mwr_served: one thread, several UDS
// connections, each keeping a fixed window of campaigns outstanding.
//
// Every round pipelines, on all connections at once, a STATUS for every
// outstanding campaign; then a RESULT for each campaign STATUS reported
// done, plus the SUBMITs that refill the window.  Replies arrive in
// request order per connection (the control plane is strictly
// request/reply), so a round costs two round trips however many campaigns
// it covers.  The client stays a closed loop: it submits only to refill.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/control.hpp"
#include "trace.hpp"

namespace mwr::serve {
class ControlConn;
}  // namespace mwr::serve

namespace e2e {

using RequestFn = std::function<mwr::serve::SubmitRequest(std::size_t)>;

/// One campaign as a closed-loop client saw it, SUBMIT to RESULT.
struct Completion {
  std::size_t index = 0;        ///< position in the workload's request stream.
  std::int64_t submit_ns = 0;   ///< SUBMIT sent.
  std::int64_t done_ns = 0;     ///< RESULT decoded.
  std::uint64_t hash = 0;       ///< trajectory hash.
  bool outcome_ok = false;      ///< a well-formed outcome document came back.
};

/// When a closed loop stops submitting; it then drains what is outstanding.
struct SubmitLimits {
  std::int64_t deadline_ns = std::numeric_limits<std::int64_t>::max();
  std::size_t max_submissions = std::numeric_limits<std::size_t>::max();
};

/// Client-side layer accounting (the codec and the socket).
struct ClientLayers {
  Layer encode;   ///< encode_*_request, per frame.
  Layer send;     ///< ControlConn::send_frame, per frame.
  Layer recv;     ///< ControlConn::recv_frame (waiting included), per frame.
  Layer decode;   ///< decode_*_reply, per frame.
  Layer ledger;   ///< window and ledger bookkeeping.
  Layer rounds;   ///< whole rounds; units = rounds.
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t result_frames = 0;
  std::uint64_t result_frame_bytes = 0;
  std::vector<double> round_ms;
};

class FleetClient {
 public:
  FleetClient(const std::string& socket_path, std::size_t connections,
              std::size_t window_per_connection);
  ~FleetClient();

  FleetClient(const FleetClient&) = delete;
  FleetClient& operator=(const FleetClient&) = delete;

  /// Runs the closed loop over requests make(0), make(1), ... until
  /// `limits` stop submission and every outstanding campaign finished.
  /// Returns completions in finishing order.  `on_round(completed)` runs
  /// after every round.  Throws std::runtime_error when the daemon drops
  /// a connection or replies out of shape.
  std::vector<Completion> run(
      const RequestFn& make, const SubmitLimits& limits,
      const std::function<void(std::size_t)>& on_round = {});

  /// Submissions the daemon refused (admission control).
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }

  /// Result documents of the indices `keep` selected, for cross-checks.
  std::function<bool(std::size_t)> keep;
  std::map<std::size_t, std::string> kept_documents;

  /// Filled only when tracing: per-layer client time and round spans.
  Tracer* tracer = nullptr;
  ClientLayers layers;

  /// Asks the daemon to drain and exit; returns once it acknowledged.
  void shutdown();

 private:
  struct Outstanding {
    std::size_t index;
    std::uint64_t id;
    std::int64_t submit_ns;
  };
  struct Conn {
    std::unique_ptr<mwr::serve::ControlConn> conn;
    std::vector<Outstanding> window;
  };

  void send(Conn& conn, const mwr::parallel::transport::WireFrame& frame);
  mwr::parallel::transport::WireFrame recv(
      Conn& conn, mwr::parallel::transport::FrameKind expected);

  std::vector<Conn> conns_;
  std::size_t window_;
  std::uint64_t rejected_ = 0;
};

}  // namespace e2e
