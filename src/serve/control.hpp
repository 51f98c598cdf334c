// The campaign-server control plane: request/reply structs and their
// wire-frame codecs.
//
// Clients talk to mwr_served over a Unix-domain stream socket carrying
// ordinary MWRW frames (parallel/transport/wire.hpp) — the same
// length-prefixed, versioned header the SPMD transports use — with four
// control kinds whose payload is the frame's `bytes`, each field at its
// declared width (serve/payload_codec.hpp: u8/u32/u64/f64 little-endian,
// bool as one 0/1 byte, strings as a u32 length plus raw bytes):
//
//   kSubmit      submit a campaign / admission verdict;
//   kStatus      poll one campaign's progress (value = campaign id);
//   kCheckpoint  ask the daemon to checkpoint every resident campaign;
//   kResult      fetch a finished campaign's outcome JSON
//                (mwr-campaign-outcome-v1 — byte-identical to what
//                repair_tool --outcome-out writes for the same run).
//
// kShutdown is reused as the drain-and-exit command.  Frames set
// `source` to 0 for requests and 1 for replies so a mismatched
// direction fails loudly instead of being misparsed.  Every connection
// is strictly request/reply; the daemon never pushes unsolicited frames.
//
// This header is IPC-free (pure structs + codecs) — the socket calls
// live in parallel/transport/frame_stream.cpp, under serve's
// control_socket.hpp names.
#pragma once

#include <cstdint>
#include <string>

#include "apr/campaign.hpp"
#include "datasets/scenario.hpp"
#include "parallel/transport/wire.hpp"

namespace mwr::serve {

/// A campaign submission: a named scenario plus the knobs a tenant may
/// turn.  Defaults are sized for serving (small pools, short online
/// budgets, single-threaded phases — concurrency comes from running many
/// campaigns as fibers, not from intra-campaign fan-out).
struct SubmitRequest {
  std::string scenario = "gzip-2009-08-16";  ///< scenario_by_name key.
  std::uint32_t bugs = 2;          ///< defects repaired in sequence.
  std::uint32_t tests = 0;         ///< base suite size; 0 = scenario default.
  std::uint32_t pool_target = 300; ///< phase-1 safe mutations to collect.
  std::uint32_t pool_attempts = 20000;  ///< phase-1 candidate budget.
  std::uint64_t pool_seed = 1;
  std::uint8_t mwu = 0;            ///< core::MwuKind index.
  std::uint32_t arms = 32;
  std::uint32_t max_count = 256;
  std::uint32_t agents = 8;
  std::uint32_t max_iterations = 200;
  std::uint64_t repair_seed = 7;
  bool grow_suite = true;

  bool operator==(const SubmitRequest&) const = default;
};

/// The largest `pool_attempts` a SUBMIT may ask for: MutationPool's default
/// candidate budget.  plan_campaign also refuses a `pool_target` above
/// `pool_attempts`, since each attempt yields at most one safe mutation.
inline constexpr std::uint32_t kMaxPoolAttempts = 200000;
static_assert(apr::PoolConfig{}.max_attempts == kMaxPoolAttempts);

/// The resolved execution plan for a submission.
struct CampaignPlan {
  datasets::ScenarioSpec spec;
  apr::CampaignConfig config;
};

/// Maps a submission onto (scenario spec, campaign config).  Forces
/// pool.threads = 1 and repair.eval_threads = 1: a served campaign is one
/// fiber among thousands, so intra-campaign thread fan-out would
/// oversubscribe the engine's workers.  Throws std::invalid_argument for
/// an unknown scenario name, an unknown MWU kind, or degenerate repair
/// knobs (zero bugs/arms/max_count/agents/max_iterations, tests > 64) —
/// everything a later phase would throw on must be rejected at SUBMIT so
/// a malformed request can never detonate inside an epoch fiber.  It also
/// refuses a pool budget past kMaxPoolAttempts and a pool target past its
/// budget, whose precompute would stall every tenant at the epoch join.
[[nodiscard]] CampaignPlan plan_campaign(const SubmitRequest& request);

struct SubmitReply {
  bool accepted = false;           ///< false = admission control rejected.
  std::uint64_t campaign_id = 0;   ///< valid when accepted.
  std::uint64_t resident = 0;      ///< campaigns resident after the verdict.

  bool operator==(const SubmitReply&) const = default;
};

struct StatusReply {
  bool known = false;              ///< id matches a resident or finished campaign.
  bool done = false;
  std::uint64_t bug_index = 0;     ///< bugs completed so far.
  std::uint64_t bugs_total = 0;
  std::uint64_t online_cycles = 0;
  std::uint64_t online_probes = 0;
  std::uint64_t repaired = 0;
  std::uint64_t trajectory_hash = 0;  ///< the bit-identity fingerprint.

  bool operator==(const StatusReply&) const = default;
};

struct ResultReply {
  bool ready = false;              ///< campaign finished; JSON present.
  std::uint64_t campaign_id = 0;
  std::string outcome_json;        ///< mwr-campaign-outcome-v1 document.

  bool operator==(const ResultReply&) const = default;
};

struct CheckpointReply {
  std::uint64_t bytes = 0;         ///< checkpoint bytes written.
  std::uint64_t campaigns = 0;     ///< campaigns checkpointed.

  bool operator==(const CheckpointReply&) const = default;
};

// --- frame codecs -------------------------------------------------------
// Encoders are total; decoders validate kind + direction + payload shape
// and throw std::runtime_error on anything malformed.

using parallel::transport::WireFrame;

class PayloadWriter;
class PayloadReader;

/// The SubmitRequest fields in declaration order, each at its declared
/// width: the SUBMIT frame's whole payload and the checkpoint's request
/// section.  read_request throws std::runtime_error on a truncated or
/// malformed payload.
void write_request(PayloadWriter& w, const SubmitRequest& request);
[[nodiscard]] SubmitRequest read_request(PayloadReader& r);

[[nodiscard]] WireFrame encode_submit_request(const SubmitRequest& request);
[[nodiscard]] SubmitRequest decode_submit_request(const WireFrame& frame);
[[nodiscard]] WireFrame encode_submit_reply(const SubmitReply& reply);
[[nodiscard]] SubmitReply decode_submit_reply(const WireFrame& frame);

[[nodiscard]] WireFrame encode_status_request(std::uint64_t campaign_id);
[[nodiscard]] std::uint64_t decode_status_request(const WireFrame& frame);
[[nodiscard]] WireFrame encode_status_reply(std::uint64_t campaign_id,
                                            const StatusReply& reply);
[[nodiscard]] StatusReply decode_status_reply(const WireFrame& frame);

[[nodiscard]] WireFrame encode_result_request(std::uint64_t campaign_id);
[[nodiscard]] std::uint64_t decode_result_request(const WireFrame& frame);
[[nodiscard]] WireFrame encode_result_reply(const ResultReply& reply);
[[nodiscard]] ResultReply decode_result_reply(const WireFrame& frame);

[[nodiscard]] WireFrame encode_checkpoint_request();
[[nodiscard]] WireFrame encode_checkpoint_reply(const CheckpointReply& reply);
[[nodiscard]] CheckpointReply decode_checkpoint_reply(const WireFrame& frame);

/// Drain-and-exit: the daemon stops admitting, finishes every resident
/// campaign, then exits.  The reply reports how many campaigns remained
/// at the moment the request was accepted.
[[nodiscard]] WireFrame encode_shutdown_request();
[[nodiscard]] WireFrame encode_shutdown_reply(std::uint64_t remaining);
[[nodiscard]] std::uint64_t decode_shutdown_reply(const WireFrame& frame);

}  // namespace mwr::serve
