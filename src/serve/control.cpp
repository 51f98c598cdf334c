#include "serve/control.hpp"

#include <stdexcept>

#include "serve/payload_codec.hpp"

namespace mwr::serve {

using parallel::transport::FrameKind;

namespace {

constexpr std::int32_t kRequest = 0;
constexpr std::int32_t kReply = 1;

WireFrame control_frame(FrameKind kind, std::int32_t direction,
                        std::uint64_t value,
                        std::vector<std::uint8_t> bytes) {
  WireFrame f;
  f.kind = kind;
  f.source = direction;
  f.value = value;
  f.bytes = std::move(bytes);
  return f;
}

void expect(const WireFrame& frame, FrameKind kind, std::int32_t direction,
            const char* what) {
  if (frame.kind != kind)
    throw std::runtime_error(std::string("serve control: ") + what +
                             ": unexpected frame kind");
  if (frame.source != direction)
    throw std::runtime_error(std::string("serve control: ") + what +
                             ": wrong direction");
}

void expect_drained(const PayloadReader& reader, const char* what) {
  if (!reader.done())
    throw std::runtime_error(std::string("serve control: ") + what +
                             ": trailing payload");
}

}  // namespace

CampaignPlan plan_campaign(const SubmitRequest& request) {
  // Admission-time validation: every knob that MwRepair, the MWU
  // strategies, or the oracle would reject later must be refused here,
  // at SUBMIT, so a malformed submission is a client error instead of an
  // exception thrown inside a running epoch fiber.
  if (request.bugs == 0)
    throw std::invalid_argument("plan_campaign: bugs == 0");
  if (request.arms == 0)
    throw std::invalid_argument("plan_campaign: arms == 0");
  if (request.max_count == 0)
    throw std::invalid_argument("plan_campaign: max_count == 0");
  if (request.agents == 0)
    throw std::invalid_argument("plan_campaign: agents == 0");
  if (request.max_iterations == 0)
    throw std::invalid_argument("plan_campaign: max_iterations == 0");
  if (request.tests > 64)
    throw std::invalid_argument(
        "plan_campaign: tests > 64 (oracle bitmask limit)");
  if (request.mwu > static_cast<std::uint8_t>(core::MwuKind::kExp3))
    throw std::invalid_argument("plan_campaign: unknown MWU kind index");
  // The pool precompute runs as one non-preemptible unit inside the epoch
  // sweep, so every tenant waits at the join for it: bound its budget.
  if (request.pool_attempts > kMaxPoolAttempts)
    throw std::invalid_argument("plan_campaign: pool_attempts > " +
                                std::to_string(kMaxPoolAttempts));
  if (request.pool_target > request.pool_attempts)
    throw std::invalid_argument("plan_campaign: pool_target > pool_attempts");

  CampaignPlan plan;
  plan.spec = datasets::scenario_by_name(request.scenario);
  if (request.tests != 0) plan.spec.tests = request.tests;

  apr::CampaignConfig& config = plan.config;
  config.bugs = request.bugs;
  config.grow_suite = request.grow_suite;
  config.pool.target_size = request.pool_target;
  config.pool.max_attempts = request.pool_attempts;
  config.pool.seed = request.pool_seed;
  config.pool.threads = 1;
  config.repair.mwu = static_cast<core::MwuKind>(request.mwu);
  config.repair.arms = request.arms;
  config.repair.max_count = request.max_count;
  config.repair.agents = request.agents;
  config.repair.max_iterations = request.max_iterations;
  config.repair.seed = request.repair_seed;
  config.repair.eval_threads = 1;
  return plan;
}

void write_request(PayloadWriter& w, const SubmitRequest& request) {
  w.str(request.scenario);
  w.u32(request.bugs);
  w.u32(request.tests);
  w.u32(request.pool_target);
  w.u32(request.pool_attempts);
  w.u64(request.pool_seed);
  w.u8(request.mwu);
  w.u32(request.arms);
  w.u32(request.max_count);
  w.u32(request.agents);
  w.u32(request.max_iterations);
  w.u64(request.repair_seed);
  w.boolean(request.grow_suite);
}

SubmitRequest read_request(PayloadReader& r) {
  SubmitRequest request;
  request.scenario = r.str();
  request.bugs = r.u32();
  request.tests = r.u32();
  request.pool_target = r.u32();
  request.pool_attempts = r.u32();
  request.pool_seed = r.u64();
  request.mwu = r.u8();
  request.arms = r.u32();
  request.max_count = r.u32();
  request.agents = r.u32();
  request.max_iterations = r.u32();
  request.repair_seed = r.u64();
  request.grow_suite = r.boolean();
  return request;
}

WireFrame encode_submit_request(const SubmitRequest& request) {
  PayloadWriter w;
  write_request(w, request);
  return control_frame(FrameKind::kSubmit, kRequest, 0, w.take());
}

SubmitRequest decode_submit_request(const WireFrame& frame) {
  expect(frame, FrameKind::kSubmit, kRequest, "submit request");
  PayloadReader r(frame.bytes);
  SubmitRequest request = read_request(r);
  expect_drained(r, "submit request");
  return request;
}

WireFrame encode_submit_reply(const SubmitReply& reply) {
  PayloadWriter w;
  w.boolean(reply.accepted);
  w.u64(reply.resident);
  return control_frame(FrameKind::kSubmit, kReply, reply.campaign_id,
                       w.take());
}

SubmitReply decode_submit_reply(const WireFrame& frame) {
  expect(frame, FrameKind::kSubmit, kReply, "submit reply");
  PayloadReader r(frame.bytes);
  SubmitReply reply;
  reply.campaign_id = frame.value;
  reply.accepted = r.boolean();
  reply.resident = r.u64();
  expect_drained(r, "submit reply");
  return reply;
}

WireFrame encode_status_request(std::uint64_t campaign_id) {
  return control_frame(FrameKind::kStatus, kRequest, campaign_id, {});
}

std::uint64_t decode_status_request(const WireFrame& frame) {
  expect(frame, FrameKind::kStatus, kRequest, "status request");
  return frame.value;
}

WireFrame encode_status_reply(std::uint64_t campaign_id,
                              const StatusReply& reply) {
  PayloadWriter w;
  w.boolean(reply.known);
  w.boolean(reply.done);
  w.u64(reply.bug_index);
  w.u64(reply.bugs_total);
  w.u64(reply.online_cycles);
  w.u64(reply.online_probes);
  w.u64(reply.repaired);
  w.u64(reply.trajectory_hash);
  return control_frame(FrameKind::kStatus, kReply, campaign_id, w.take());
}

StatusReply decode_status_reply(const WireFrame& frame) {
  expect(frame, FrameKind::kStatus, kReply, "status reply");
  PayloadReader r(frame.bytes);
  StatusReply reply;
  reply.known = r.boolean();
  reply.done = r.boolean();
  reply.bug_index = r.u64();
  reply.bugs_total = r.u64();
  reply.online_cycles = r.u64();
  reply.online_probes = r.u64();
  reply.repaired = r.u64();
  reply.trajectory_hash = r.u64();
  expect_drained(r, "status reply");
  return reply;
}

WireFrame encode_result_request(std::uint64_t campaign_id) {
  return control_frame(FrameKind::kResult, kRequest, campaign_id, {});
}

std::uint64_t decode_result_request(const WireFrame& frame) {
  expect(frame, FrameKind::kResult, kRequest, "result request");
  return frame.value;
}

WireFrame encode_result_reply(const ResultReply& reply) {
  PayloadWriter w;
  w.boolean(reply.ready);
  w.str(reply.outcome_json);
  return control_frame(FrameKind::kResult, kReply, reply.campaign_id,
                       w.take());
}

ResultReply decode_result_reply(const WireFrame& frame) {
  expect(frame, FrameKind::kResult, kReply, "result reply");
  PayloadReader r(frame.bytes);
  ResultReply reply;
  reply.campaign_id = frame.value;
  reply.ready = r.boolean();
  reply.outcome_json = r.str();
  expect_drained(r, "result reply");
  return reply;
}

WireFrame encode_checkpoint_request() {
  return control_frame(FrameKind::kCheckpoint, kRequest, 0, {});
}

WireFrame encode_checkpoint_reply(const CheckpointReply& reply) {
  PayloadWriter w;
  w.u64(reply.campaigns);
  return control_frame(FrameKind::kCheckpoint, kReply, reply.bytes, w.take());
}

CheckpointReply decode_checkpoint_reply(const WireFrame& frame) {
  expect(frame, FrameKind::kCheckpoint, kReply, "checkpoint reply");
  PayloadReader r(frame.bytes);
  CheckpointReply reply;
  reply.bytes = frame.value;
  reply.campaigns = r.u64();
  expect_drained(r, "checkpoint reply");
  return reply;
}

WireFrame encode_shutdown_request() {
  return control_frame(FrameKind::kShutdown, kRequest, 0, {});
}

WireFrame encode_shutdown_reply(std::uint64_t remaining) {
  return control_frame(FrameKind::kShutdown, kReply, remaining, {});
}

std::uint64_t decode_shutdown_reply(const WireFrame& frame) {
  expect(frame, FrameKind::kShutdown, kReply, "shutdown reply");
  return frame.value;
}

}  // namespace mwr::serve
