#include "fleet_client.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "parallel/transport/wire.hpp"
#include "serve/control_socket.hpp"

namespace e2e {

namespace serve = mwr::serve;
using mwr::parallel::transport::encoded_size;
using mwr::parallel::transport::FrameKind;
using mwr::parallel::transport::WireFrame;

namespace {
constexpr const char* kOutcomeSchema = "mwr-campaign-outcome-v1";
}  // namespace

FleetClient::FleetClient(const std::string& socket_path,
                         std::size_t connections,
                         std::size_t window_per_connection)
    : window_(window_per_connection) {
  for (std::size_t i = 0; i < connections; ++i) {
    conns_.push_back({serve::connect_control(socket_path, 10000), {}});
  }
}

FleetClient::~FleetClient() = default;

void FleetClient::send(Conn& conn, const WireFrame& frame) {
  const std::int64_t t = tracer ? now_ns() : 0;
  if (!conn.conn->send_frame(frame))
    throw std::runtime_error("mwr_served closed a control connection");
  if (tracer) {
    layers.send.add(now_ns() - t);
    layers.bytes_sent += encoded_size(frame);
  }
}

WireFrame FleetClient::recv(Conn& conn, FrameKind expected) {
  const std::int64_t t = tracer ? now_ns() : 0;
  std::optional<WireFrame> frame = conn.conn->recv_frame();
  if (tracer) layers.recv.add(now_ns() - t);
  if (!frame) throw std::runtime_error("mwr_served closed before replying");
  if (frame->kind != expected)
    throw std::runtime_error("mwr_served replied with a mismatched kind");
  if (tracer) layers.bytes_received += encoded_size(*frame);
  return *std::move(frame);
}

std::vector<Completion> FleetClient::run(
    const RequestFn& make, const SubmitLimits& limits,
    const std::function<void(std::size_t)>& on_round) {
  const auto stamp = [this] { return tracer ? now_ns() : std::int64_t{0}; };
  std::vector<Completion> done;
  std::size_t next = 0;
  std::vector<std::vector<std::size_t>> finished(conns_.size());
  std::vector<std::vector<std::uint64_t>> hashes(conns_.size());
  std::vector<std::vector<Outstanding>> submitted(conns_.size());

  for (std::uint64_t round = 0;; ++round) {
    const std::int64_t round_start = now_ns();
    const bool submitting = round_start < limits.deadline_ns &&
                            next < limits.max_submissions;
    bool outstanding = false;
    for (const Conn& c : conns_) outstanding |= !c.window.empty();
    if (!submitting && !outstanding) break;
    const SpanScope round_span(tracer, "client.round", Tracer::kNone, round);

    {  // STATUS for every outstanding campaign, on every connection.
      const SpanScope span(tracer, "client.status", round_span.index());
      for (Conn& c : conns_) {
        for (const Outstanding& o : c.window) {
          const std::int64_t t = stamp();
          const WireFrame frame = serve::encode_status_request(o.id);
          layers.encode.add(stamp() - t);
          send(c, frame);
        }
      }
      for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
        finished[ci].clear();
        hashes[ci].clear();
        for (std::size_t k = 0; k < conns_[ci].window.size(); ++k) {
          const WireFrame frame = recv(conns_[ci], FrameKind::kStatus);
          const std::int64_t t = stamp();
          const serve::StatusReply status = serve::decode_status_reply(frame);
          layers.decode.add(stamp() - t);
          if (status.done) {
            finished[ci].push_back(k);
            hashes[ci].push_back(status.trajectory_hash);
          }
        }
      }
    }

    {  // RESULT for the finished ones, SUBMIT to refill the window.
      const SpanScope span(tracer, "client.result_submit", round_span.index());
      for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
        Conn& c = conns_[ci];
        for (const std::size_t k : finished[ci]) {
          const std::int64_t t = stamp();
          const WireFrame frame = serve::encode_result_request(c.window[k].id);
          layers.encode.add(stamp() - t);
          send(c, frame);
        }
        submitted[ci].clear();
        std::size_t refill =
            submitting ? window_ - (c.window.size() - finished[ci].size()) : 0;
        refill = std::min(refill, limits.max_submissions - next);
        for (std::size_t r = 0; r < refill; ++r, ++next) {
          const serve::SubmitRequest request = make(next);
          const std::int64_t t = stamp();
          const WireFrame frame = serve::encode_submit_request(request);
          layers.encode.add(stamp() - t);
          submitted[ci].push_back({next, 0, now_ns()});
          send(c, frame);
        }
      }
      for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
        Conn& c = conns_[ci];
        for (std::size_t f = 0; f < finished[ci].size(); ++f) {
          const WireFrame frame = recv(c, FrameKind::kResult);
          std::int64_t t = stamp();
          const serve::ResultReply result = serve::decode_result_reply(frame);
          const std::int64_t decoded = now_ns();
          layers.decode.add(stamp() - t);
          t = stamp();
          const Outstanding& o = c.window[finished[ci][f]];
          const bool ok = result.ready &&
                          result.outcome_json.find(kOutcomeSchema) !=
                              std::string::npos;
          done.push_back({o.index, o.submit_ns, decoded, hashes[ci][f], ok});
          if (keep && keep(o.index))
            kept_documents[o.index] = result.outcome_json;
          if (tracer) {
            ++layers.result_frames;
            layers.result_frame_bytes += encoded_size(frame);
          }
          layers.ledger.add(stamp() - t);
        }
        const std::int64_t t0 = stamp();
        std::vector<Outstanding> window;
        window.reserve(window_);
        std::size_t f = 0;
        for (std::size_t k = 0; k < c.window.size(); ++k) {
          if (f < finished[ci].size() && finished[ci][f] == k) {
            ++f;
          } else {
            window.push_back(c.window[k]);
          }
        }
        layers.ledger.add(stamp() - t0);
        for (Outstanding& s : submitted[ci]) {
          const WireFrame frame = recv(c, FrameKind::kSubmit);
          const std::int64_t t = stamp();
          const serve::SubmitReply reply = serve::decode_submit_reply(frame);
          layers.decode.add(stamp() - t);
          if (reply.accepted) {
            s.id = reply.campaign_id;
            window.push_back(s);
          } else {
            ++rejected_;
            done.push_back({s.index, s.submit_ns, now_ns(), 0, false});
          }
        }
        c.window = std::move(window);
      }
    }
    const std::int64_t round_ns = now_ns() - round_start;
    if (tracer) {
      layers.rounds.add(round_ns);
      layers.round_ms.push_back(static_cast<double>(round_ns) * 1e-6);
    }
    if (on_round) on_round(done.size());
  }
  return done;
}

void FleetClient::shutdown() {
  Conn& c = conns_.front();
  send(c, serve::encode_shutdown_request());
  (void)serve::decode_shutdown_reply(recv(c, FrameKind::kShutdown));
}

}  // namespace e2e
