// A seeded mutation fuzzer for the decoders that parse untrusted bytes:
// decode_frame and every control decode_* (control frames arrive from
// other processes), and decode_checkpoint followed by
// CampaignSession::resume and one step (checkpoint files are read from
// disk on --resume, then stepped by the daemon).
//
// The corpus is the pinned SUBMIT frame, one reply frame of each kind,
// and a mid-campaign checkpoint for each MwuKind.  Each iteration applies
// one mutation — bit flips, a truncation, or a splice of an edge value
// into a length or count field — under a fixed seed and a fixed
// iteration budget.  Every input must either decode or throw an
// exception derived from std::exception; anything else (a crash, a
// foreign exception, an ASan/UBSan report in the sanitizer lane) fails.
// The same hostile inputs are also written into a socketpair in
// random-sized pieces and drained through FrameStream, the one code that
// reassembles frames from a socket.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apr/campaign_session.hpp"
#include "apr/oracle_hub.hpp"
#include "parallel/transport/frame_stream.hpp"
#include "serve/checkpoint.hpp"
#include "serve/control.hpp"
#include "util/rng.hpp"

namespace mwr::serve {
namespace {

using parallel::transport::decode_frame;
using parallel::transport::encode_frame;
using parallel::transport::FrameStream;

constexpr std::uint64_t kFuzzSeed = 0x5eedf022;
constexpr int kFrameIterations = 20000;
constexpr int kCheckpointIterations = 2000;

std::vector<std::uint8_t> bytes_of(const WireFrame& frame) {
  std::vector<std::uint8_t> bytes;
  encode_frame(frame, bytes);
  return bytes;
}

// The request Checkpoint.SubmitFrameAndCheckpointBytesArePinned pins.
SubmitRequest pinned_request() {
  SubmitRequest request;
  request.scenario = "Closure13";
  request.bugs = 2;
  request.tests = 24;
  request.pool_target = 150;
  request.pool_attempts = 10000;
  request.pool_seed = 11;
  request.mwu = 2;
  request.arms = 16;
  request.agents = 4;
  request.max_count = 128;
  request.max_iterations = 60;
  request.repair_seed = 0x123456789abcdefull;
  request.grow_suite = false;
  return request;
}

std::vector<std::vector<std::uint8_t>> frame_corpus() {
  StatusReply status;
  status.known = true;
  status.bug_index = 1;
  status.bugs_total = 2;
  status.online_cycles = 60;
  status.online_probes = 240;
  status.trajectory_hash = 0xfeedfacecafebeefull;
  ResultReply result;
  result.ready = true;
  result.campaign_id = 9;
  result.outcome_json = R"({"schema": "mwr-campaign-outcome-v1", "bugs": []})";
  return {
      bytes_of(encode_submit_request(pinned_request())),
      bytes_of(encode_submit_reply({true, 9, 3})),
      bytes_of(encode_status_reply(9, status)),
      bytes_of(encode_result_reply(result)),
      bytes_of(encode_checkpoint_reply({4096, 3})),
      bytes_of(encode_shutdown_reply(2)),
  };
}

// A checkpoint taken in the online phase, so every section is present.
std::vector<std::uint8_t> mid_campaign_checkpoint(core::MwuKind kind,
                                                  apr::OracleHub& hub) {
  SubmitRequest request;
  request.scenario = "libtiff-2005-12-14";
  request.bugs = 2;
  request.pool_target = 150;
  request.pool_attempts = 10000;
  request.pool_seed = 11;
  request.arms = 16;
  request.agents = 4;
  request.max_count = 128;
  request.max_iterations = 60;
  request.repair_seed = 31;
  request.grow_suite = false;
  request.mwu = static_cast<std::uint8_t>(kind);
  const CampaignPlan plan = plan_campaign(request);
  apr::CampaignSession session(plan.spec, plan.config, &hub);
  for (int i = 0; i < 8 && !session.done(); ++i) (void)session.step(1);
  CampaignCheckpoint checkpoint{/*campaign_id=*/static_cast<std::uint64_t>(kind),
                                request, session.snapshot()};
  EXPECT_TRUE(checkpoint.snapshot.has_repair_state) << core::to_string(kind);
  return encode_checkpoint(checkpoint);
}

// Byte offsets of every frame's u32 length prefix and u32 count field.
std::vector<std::size_t> length_fields(const std::vector<std::uint8_t>& in) {
  std::vector<std::size_t> fields;
  std::size_t offset = 0;
  while (offset + 4 <= in.size()) {
    fields.push_back(offset);
    fields.push_back(offset + 32);
    std::uint32_t body = 0;
    std::memcpy(&body, in.data() + offset, 4);
    offset += 4 + body;
  }
  return fields;
}

std::vector<std::uint8_t> mutate(const std::vector<std::uint8_t>& input,
                                 const std::vector<std::size_t>& fields,
                                 util::RngStream& rng) {
  std::vector<std::uint8_t> out = input;
  switch (rng.uniform_index(3)) {
    case 0: {  // one to four bit flips
      const std::uint64_t flips = 1 + rng.uniform_index(4);
      for (std::uint64_t i = 0; i < flips; ++i)
        out[rng.uniform_index(out.size())] ^=
            static_cast<std::uint8_t>(1u << rng.uniform_index(8));
      break;
    }
    case 1:  // a strict prefix
      out.resize(rng.uniform_index(out.size()));
      break;
    default: {  // an edge value spliced over a length/count or any u32
      std::size_t at = rng.bernoulli(0.5)
                           ? fields[rng.uniform_index(fields.size())]
                           : rng.uniform_index(out.size() - 3);
      if (at + 4 > out.size()) at = out.size() - 4;
      std::uint32_t value = 0;
      std::memcpy(&value, out.data() + at, 4);
      const std::uint32_t edges[] = {0u,          1u,          value - 1,
                                     value + 1,   value * 2,   0x7fu,
                                     0xffffu,     64u << 20,   0x7fffffffu,
                                     0xffffffffu};
      value = edges[rng.uniform_index(std::size(edges))];
      std::memcpy(out.data() + at, &value, 4);
      break;
    }
  }
  return out;
}

// Runs `fn`; a std::exception is a rejection, anything else escapes.
template <typename Fn>
bool accepts(Fn&& fn) {
  try {
    fn();
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

TEST(DecoderFuzz, FramesDecodeOrThrowStdExceptions) {
  const std::vector<std::vector<std::uint8_t>> corpus = frame_corpus();
  util::RngStream rng(kFuzzSeed);
  int frames_decoded = 0;
  int control_decoded = 0;
  for (int it = 0; it < kFrameIterations; ++it) {
    const std::vector<std::uint8_t>& seed = corpus[it % corpus.size()];
    const std::vector<std::uint8_t> input =
        mutate(seed, length_fields(seed), rng);
    WireFrame frame;
    if (!accepts([&] {
          if (decode_frame(input.data(), input.size(), frame) == 0)
            throw std::runtime_error("incomplete");
        }))
      continue;
    ++frames_decoded;
    // Every decoder sees every frame: a flipped kind or direction bit
    // must be refused by the decoders it no longer belongs to.
    control_decoded += accepts([&] { (void)decode_submit_request(frame); });
    control_decoded += accepts([&] { (void)decode_submit_reply(frame); });
    control_decoded += accepts([&] { (void)decode_status_request(frame); });
    control_decoded += accepts([&] { (void)decode_status_reply(frame); });
    control_decoded += accepts([&] { (void)decode_result_request(frame); });
    control_decoded += accepts([&] { (void)decode_result_reply(frame); });
    control_decoded += accepts([&] { (void)decode_checkpoint_reply(frame); });
    control_decoded += accepts([&] { (void)decode_shutdown_reply(frame); });
  }
  // The budget reaches both outcomes at every layer.
  EXPECT_GT(frames_decoded, kFrameIterations / 10);
  EXPECT_LT(frames_decoded, kFrameIterations);
  EXPECT_GT(control_decoded, 0);
  EXPECT_LT(control_decoded, frames_decoded);
}

TEST(DecoderFuzz, CheckpointsDecodeAndResumeOrThrowStdExceptions) {
  apr::OracleHub hub;
  std::vector<std::vector<std::uint8_t>> corpus;
  for (const core::MwuKind kind :
       {core::MwuKind::kStandard, core::MwuKind::kSlate,
        core::MwuKind::kDistributed, core::MwuKind::kExp3})
    corpus.push_back(mid_campaign_checkpoint(kind, hub));

  util::RngStream rng(kFuzzSeed + 1);
  int decoded = 0;
  int resumed = 0;
  for (int it = 0; it < kCheckpointIterations; ++it) {
    const std::vector<std::uint8_t>& seed = corpus[it % corpus.size()];
    const std::vector<std::uint8_t> input =
        mutate(seed, length_fields(seed), rng);
    CampaignCheckpoint checkpoint;
    if (!accepts([&] { checkpoint = decode_checkpoint(input); })) continue;
    ++decoded;
    resumed += accepts([&] {
      CampaignPlan plan = plan_campaign(checkpoint.request);
      const std::unique_ptr<apr::CampaignSession> session =
          apr::CampaignSession::resume(checkpoint.snapshot,
                                       std::move(plan.spec), plan.config,
                                       &hub);
      (void)session->step(1);
    });
  }
  EXPECT_GT(decoded, kCheckpointIterations / 10);
  EXPECT_LT(decoded, kCheckpointIterations);
  EXPECT_GT(resumed, 0);
  EXPECT_LT(resumed, decoded);
}

// --- the same inputs over a socket -----------------------------------------

/// What a byte sequence yields: its frames in order, and whether reading
/// it ended in a std::runtime_error.
struct Drained {
  std::vector<WireFrame> frames;
  bool threw = false;
};

/// decode_frame walked over the whole input, the reference.
Drained walk(const std::vector<std::uint8_t>& input) {
  Drained out;
  std::size_t offset = 0;
  try {
    for (;;) {
      WireFrame frame;
      const std::size_t used =
          decode_frame(input.data() + offset, input.size() - offset, frame);
      if (used == 0) break;
      offset += used;
      out.frames.push_back(std::move(frame));
    }
  } catch (const std::runtime_error&) {
    out.threw = true;
  }
  return out;
}

/// Cut points splitting `size` bytes into random pieces of 1..4096 bytes.
std::vector<std::size_t> random_cuts(std::size_t size, util::RngStream& rng) {
  std::vector<std::size_t> cuts;
  for (std::size_t at = 0; at < size;) {
    at = std::min(size, at + 1 + rng.uniform_index(4096));
    cuts.push_back(at);
  }
  return cuts;
}

bool send_all(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// One piece at a time, each followed by one non-blocking pump; then EOF
/// and pumps until the stream reports it.
Drained drain_by_pump(const std::vector<std::uint8_t>& input,
                      const std::vector<std::size_t>& cuts) {
  auto [writer, reader] = FrameStream::connected_pair();
  Drained out;
  try {
    std::size_t from = 0;
    for (const std::size_t to : cuts) {
      EXPECT_TRUE(send_all(writer->fd(), input.data() + from, to - from));
      from = to;
      (void)reader->pump(out.frames);
    }
    writer->shutdown();
    int pumps = 0;
    while (reader->pump(out.frames)) {
      if (++pumps > 1000) {
        ADD_FAILURE() << "pump never reported the closed peer";
        break;
      }
    }
  } catch (const std::runtime_error&) {
    out.threw = true;
  }
  return out;
}

/// A writer thread sends the pieces while recv_frame (with a timeout)
/// reads until EOF.
Drained drain_by_recv(const std::vector<std::uint8_t>& input,
                      const std::vector<std::size_t>& cuts) {
  auto [writer, reader] = FrameStream::connected_pair();
  std::thread producer([&, stream = writer.get()] {
    std::size_t from = 0;
    for (const std::size_t to : cuts) {
      if (!send_all(stream->fd(), input.data() + from, to - from)) return;
      from = to;
      std::this_thread::yield();
    }
    ::shutdown(stream->fd(), SHUT_WR);
  });
  Drained out;
  try {
    while (std::optional<WireFrame> frame = reader->recv_frame(10000))
      out.frames.push_back(*std::move(frame));
  } catch (const std::runtime_error&) {
    out.threw = true;
  }
  reader.reset();  // a producer still writing sees EPIPE and stops
  producer.join();
  return out;
}

/// A socket drain must yield exactly the walk's frames, or a prefix of
/// them and then a std::runtime_error (it also refuses frames announced
/// past FrameStream::kMaxFrameBytes, which a bare walk only waits for).
void expect_agrees(const Drained& reference, const Drained& drained,
                   const char* how, int iteration) {
  ASSERT_LE(drained.frames.size(), reference.frames.size())
      << how << " at iteration " << iteration;
  for (std::size_t i = 0; i < drained.frames.size(); ++i)
    ASSERT_EQ(drained.frames[i], reference.frames[i])
        << how << " frame " << i << " at iteration " << iteration;
  if (!drained.threw) {
    EXPECT_EQ(drained.frames.size(), reference.frames.size())
        << how << " at iteration " << iteration;
    EXPECT_FALSE(reference.threw) << how << " at iteration " << iteration;
  }
}

TEST(DecoderFuzz, SocketStreamsYieldTheDirectWalkOrThrow) {
  // The inputs of the two tests above, regenerated from their seeds.
  std::vector<std::vector<std::uint8_t>> inputs;
  {
    const std::vector<std::vector<std::uint8_t>> corpus = frame_corpus();
    util::RngStream rng(kFuzzSeed);
    for (int it = 0; it < kFrameIterations; ++it) {
      const std::vector<std::uint8_t>& seed = corpus[it % corpus.size()];
      inputs.push_back(mutate(seed, length_fields(seed), rng));
    }
  }
  {
    apr::OracleHub hub;
    std::vector<std::vector<std::uint8_t>> corpus;
    for (const core::MwuKind kind :
         {core::MwuKind::kStandard, core::MwuKind::kSlate,
          core::MwuKind::kDistributed, core::MwuKind::kExp3})
      corpus.push_back(mid_campaign_checkpoint(kind, hub));
    util::RngStream rng(kFuzzSeed + 1);
    for (int it = 0; it < kCheckpointIterations; ++it) {
      const std::vector<std::uint8_t>& seed = corpus[it % corpus.size()];
      inputs.push_back(mutate(seed, length_fields(seed), rng));
    }
  }

  util::RngStream pieces(kFuzzSeed + 2);
  int rejected = 0;
  int multi_frame = 0;
  for (int it = 0; it < static_cast<int>(inputs.size()); ++it) {
    const std::vector<std::uint8_t>& input = inputs[static_cast<std::size_t>(it)];
    const Drained reference = walk(input);
    const Drained pumped = drain_by_pump(input, random_cuts(input.size(), pieces));
    expect_agrees(reference, pumped, "pump", it);
    const Drained received =
        drain_by_recv(input, random_cuts(input.size(), pieces));
    expect_agrees(reference, received, "recv_frame", it);
    rejected += pumped.threw;
    multi_frame += reference.frames.size() > 1;
    if (HasFatalFailure()) return;
  }
  // The inputs reach both outcomes, and some carry several frames.
  EXPECT_GT(rejected, 0);
  EXPECT_LT(rejected, static_cast<int>(inputs.size()));
  EXPECT_GT(multi_frame, 0);
}

}  // namespace
}  // namespace mwr::serve
