// Transport-layer tests: the versioned wire codec (round-trip, determinism,
// partial-buffer and corruption behavior, f64 Message and byte payloads),
// process-world smoke runs over the socketpair fabric, worker reports
// (untruncated error text, values wider than a socket buffer), and
// kill-a-worker abort propagation (a SIGKILLed worker must fail the world
// instead of hanging it).
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "parallel/transport/process_world.hpp"
#include "parallel/transport/wire.hpp"
#include "util/rng.hpp"

namespace mwr::parallel::transport {
namespace {

// --- wire codec ------------------------------------------------------------

TEST(WireCodec, MessageFrameRoundTrips) {
  const WireFrame frame =
      WireFrame::message(3, 7, 42, {1.5, -0.25, 1e300, 0.0}, /*tracked=*/true);
  std::vector<std::uint8_t> bytes;
  encode_frame(frame, bytes);
  EXPECT_EQ(bytes.size(), encoded_size(frame));

  WireFrame decoded;
  const std::size_t used = decode_frame(bytes.data(), bytes.size(), decoded);
  EXPECT_EQ(used, bytes.size());
  EXPECT_EQ(decoded, frame);
}

TEST(WireCodec, ControlFramesRoundTrip) {
  for (const FrameKind kind :
       {FrameKind::kHello, FrameKind::kBarrierMarker, FrameKind::kCycleMax,
        FrameKind::kShutdown}) {
    const WireFrame frame = WireFrame::control(kind, 0xdeadbeefcafe1234ull);
    std::vector<std::uint8_t> bytes;
    encode_frame(frame, bytes);
    WireFrame decoded;
    ASSERT_EQ(decode_frame(bytes.data(), bytes.size(), decoded), bytes.size());
    EXPECT_EQ(decoded, frame);
  }
}

TEST(WireCodec, ByteFramesCountBytesNotDoubles) {
  WireFrame frame = WireFrame::control(FrameKind::kResult, 17);
  frame.source = 1;
  for (int i = 0; i < 300; ++i)
    frame.bytes.push_back(static_cast<std::uint8_t>(i));
  std::vector<std::uint8_t> bytes;
  encode_frame(frame, bytes);
  EXPECT_EQ(bytes.size(), 4 + kFrameHeaderBytes + 300);
  EXPECT_EQ(bytes.size(), encoded_size(frame));

  WireFrame decoded = WireFrame::message(0, 0, 0, {9.0}, false);
  ASSERT_EQ(decode_frame(bytes.data(), bytes.size(), decoded), bytes.size());
  EXPECT_EQ(decoded, frame);  // the stale doubles are gone too
}

TEST(WireCodec, EncodingAppendsWithoutDisturbingPriorBytes) {
  const WireFrame a = WireFrame::message(0, 1, 5, {2.0}, false);
  const WireFrame b = WireFrame::control(FrameKind::kBarrierMarker, 9);
  std::vector<std::uint8_t> stream;
  encode_frame(a, stream);
  const std::size_t split = stream.size();
  encode_frame(b, stream);

  WireFrame first, second;
  const std::size_t used_a = decode_frame(stream.data(), stream.size(), first);
  EXPECT_EQ(used_a, split);
  const std::size_t used_b =
      decode_frame(stream.data() + used_a, stream.size() - used_a, second);
  EXPECT_EQ(used_a + used_b, stream.size());
  EXPECT_EQ(first, a);
  EXPECT_EQ(second, b);
}

TEST(WireCodec, PartialBufferConsumesNothing) {
  const WireFrame frame = WireFrame::message(1, 2, 3, {4.0, 5.0}, true);
  std::vector<std::uint8_t> bytes;
  encode_frame(frame, bytes);
  WireFrame decoded;
  // Every strict prefix is "incomplete", never an error, never progress.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_EQ(decode_frame(bytes.data(), len, decoded), 0u) << len;
  }
}

TEST(WireCodec, CorruptMagicThrows) {
  std::vector<std::uint8_t> bytes;
  encode_frame(WireFrame::control(FrameKind::kShutdown, 0), bytes);
  bytes[4] ^= 0xff;  // first magic byte, after the u32 length prefix
  WireFrame decoded;
  EXPECT_THROW(decode_frame(bytes.data(), bytes.size(), decoded),
               WireFormatError);
}

TEST(WireCodec, VersionMismatchThrows) {
  std::vector<std::uint8_t> bytes;
  encode_frame(WireFrame::control(FrameKind::kShutdown, 0), bytes);
  bytes[8] ^= 0xff;  // low byte of the u16 version field
  WireFrame decoded;
  EXPECT_THROW(decode_frame(bytes.data(), bytes.size(), decoded),
               WireFormatError);
}

TEST(WireCodec, GeometryFingerprintSeparatesWorldShapes) {
  const auto fp = geometry_fingerprint(1024, 4);
  EXPECT_NE(fp, geometry_fingerprint(1024, 8));
  EXPECT_NE(fp, geometry_fingerprint(2048, 4));
  EXPECT_EQ(fp, geometry_fingerprint(1024, 4));
}

// --- substrate Messages on the wire ---------------------------------------

// Encodes `message` as the kMessage frame the transports put on the wire.
std::vector<std::uint8_t> message_frame(const Message& message, int dest,
                                        bool tracked) {
  std::vector<std::uint8_t> bytes;
  encode_frame(WireFrame::message(message.source, dest, message.tag,
                                  message.payload.to_vector(), tracked),
               bytes);
  return bytes;
}

TEST(MessageSerialization, RoundTripsEnvelopeAndPayload) {
  Message message;
  message.source = 12;
  message.tag = 101;
  message.payload = PayloadVec({0.5, -3.25, 7.0});

  const auto bytes = message_frame(message, /*dest=*/99, /*tracked=*/true);
  WireFrame back;
  ASSERT_EQ(decode_frame(bytes.data(), bytes.size(), back), bytes.size());
  EXPECT_EQ(back.kind, FrameKind::kMessage);
  EXPECT_EQ(back.source, 12);
  EXPECT_EQ(back.tag, 101);
  EXPECT_EQ(back.payload, message.payload.to_vector());
  EXPECT_EQ(back.dest, 99);
  EXPECT_TRUE(back.tracked);
}

// Same seed => identical byte streams.  The codec is a pure function of the
// message, so two runs that draw the same random messages must serialize
// them to the very same bytes — the property the cross-backend bit-identity
// pins rely on.
TEST(MessageSerialization, SameSeedYieldsIdenticalByteStreams) {
  const auto stream_for = [](std::uint64_t seed) {
    util::RngStream rng(seed);
    std::vector<std::uint8_t> bytes;
    for (int i = 0; i < 64; ++i) {
      Message message;
      message.source = static_cast<int>(rng.uniform_int(0, 511));
      message.tag = static_cast<int>(rng.uniform_int(0, 63));
      std::vector<double> payload(
          static_cast<std::size_t>(rng.uniform_int(0, 8)));
      for (double& x : payload) x = rng.uniform();
      message.payload = PayloadVec(std::move(payload));
      const auto frame = message_frame(
          message, static_cast<int>(rng.uniform_int(0, 511)),
          rng.bernoulli(0.5));
      bytes.insert(bytes.end(), frame.begin(), frame.end());
    }
    return bytes;
  };
  EXPECT_EQ(stream_for(1234), stream_for(1234));
  EXPECT_NE(stream_for(1234), stream_for(1235));
}

TEST(MessageSerialization, RejectsTruncatedAndNonMessageFrames) {
  Message message;
  message.payload = PayloadVec({1.0});
  const auto bytes = message_frame(message, 0, false);
  WireFrame decoded;
  EXPECT_EQ(decode_frame(bytes.data(), bytes.size() - 1, decoded), 0u);

  // A frame whose count disagrees with its length is corrupt, not short.
  std::vector<std::uint8_t> bad = bytes;
  bad[32] ^= 0x01;  // low byte of the u32 payload count
  EXPECT_THROW(decode_frame(bad.data(), bad.size(), decoded),
               WireFormatError);

  // The f64 payload belongs to kMessage alone; every other kind is bytes.
  WireFrame marker = WireFrame::control(FrameKind::kBarrierMarker, 1);
  marker.payload = {1.0};
  std::vector<std::uint8_t> out;
  EXPECT_THROW(encode_frame(marker, out), std::invalid_argument);
  WireFrame with_bytes = WireFrame::message(0, 0, 0, {}, false);
  with_bytes.bytes = {1};
  EXPECT_THROW(encode_frame(with_bytes, out), std::invalid_argument);
  EXPECT_TRUE(out.empty());
}

// --- process worlds --------------------------------------------------------

// Every rank sends its rank to the next rank around the world ring (always
// crossing the process boundary for ranks at block edges), then allreduces
// a one-hot.  Each process returns the allreduced total and the sum of
// the ranks its block received.
std::vector<double> ring_smoke_body(CommWorld& world,
                                    const WorldLayout& layout) {
  const int n = static_cast<int>(layout.global_size);
  const auto begin = static_cast<int>(layout.local_begin());
  double total_ranks = 0.0;
  // One slot per local rank: ranks write only their own.
  std::vector<double> received(layout.local_count(), 0.0);
  world.run([&](Comm& comm) {
    const int next = (comm.rank() + 1) % n;
    const int prev = (comm.rank() + n - 1) % n;
    comm.send(next, /*tag=*/7, {static_cast<double>(comm.rank())});
    const Message m = comm.recv(prev, 7);
    received[static_cast<std::size_t>(comm.rank() - begin)] = m.payload[0];

    std::vector<double> one(1, 1.0);
    const auto total = comm.allreduce_sum(std::move(one));
    if (comm.rank() == begin) total_ranks = total.at(0);
    comm.barrier();
  });
  double received_sum = 0.0;
  for (const double rank : received) received_sum += rank;
  return {total_ranks, received_sum};
}

TEST(ProcessWorldSmoke, RingExchangeAcrossUnevenBlocks) {
  ProcessWorldConfig config;
  config.global_ranks = 10;  // uneven blocks: 4 + 3 + 3
  config.processes = 3;
  config.timeout_seconds = 60.0;

  const auto outcome = run_process_world(config, ring_smoke_body);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  ASSERT_EQ(outcome.values.size(), 3u);
  // Block p holds ranks [begin, end) and receives ranks [begin-1, end-1)
  // around the ring: 9+0+1+2, 3+4+5, 6+7+8.
  const double expected_received[] = {12.0, 12.0, 21.0};
  for (std::size_t p = 0; p < 3; ++p) {
    ASSERT_EQ(outcome.values[p].size(), 2u);
    EXPECT_DOUBLE_EQ(outcome.values[p][0], 10.0);  // allreduce of ones
    EXPECT_DOUBLE_EQ(outcome.values[p][1], expected_received[p]) << p;
  }
}

TEST(ProcessWorldSmoke, LongWorkerErrorIsReportedInFull) {
  ProcessWorldConfig config;
  config.global_ranks = 4;
  config.processes = 2;
  config.timeout_seconds = 60.0;

  std::string message = "worker body failed:";
  while (message.size() < 1000) message += " and the reason goes on";
  message += " [end]";
  const auto outcome = run_process_world(
      config, [&message](CommWorld& world, const WorldLayout& layout) {
        world.run([](Comm& comm) { comm.barrier(); });
        if (layout.process_index == 1) throw std::runtime_error(message);
        return std::vector<double>{1.0};
      });
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error, "worker 1: " + message);
}

TEST(ProcessWorldSmoke, ValuesWiderThanASocketBufferComeBackIntact) {
  // 200k doubles (1.6 MB) cannot sit in a socket buffer: the worker's
  // report completes only because the parent drains while it reaps.
  constexpr std::size_t kValues = 200000;
  ProcessWorldConfig config;
  config.global_ranks = 4;
  config.processes = 2;
  config.timeout_seconds = 60.0;

  const auto outcome = run_process_world(
      config, [](CommWorld& world, const WorldLayout& layout) {
        world.run([](Comm& comm) { comm.barrier(); });
        std::vector<double> values(kValues);
        for (std::size_t i = 0; i < kValues; ++i)
          values[i] = static_cast<double>(layout.process_index) * 1e6 +
                      static_cast<double>(i) + 0.25;
        return values;
      });
  ASSERT_TRUE(outcome.ok) << outcome.error;
  ASSERT_EQ(outcome.values.size(), 2u);
  for (std::size_t p = 0; p < 2; ++p) {
    ASSERT_EQ(outcome.values[p].size(), kValues) << p;
    bool intact = true;
    for (std::size_t i = 0; i < kValues; ++i)
      intact &= outcome.values[p][i] ==
                static_cast<double>(p) * 1e6 + static_cast<double>(i) + 0.25;
    EXPECT_TRUE(intact) << p;
  }
}

TEST(ProcessWorldSmoke, KilledWorkerFailsTheWorldInsteadOfHanging) {
  ProcessWorldConfig config;
  config.global_ranks = 8;
  config.processes = 2;
  // Backstop only; abort propagation must beat it by a wide margin.
  config.timeout_seconds = 60.0;

  const auto started = std::chrono::steady_clock::now();
  const auto outcome = run_process_world(
      config,
      [](CommWorld& world, const WorldLayout& layout) -> std::vector<double> {
        world.run([&](Comm& comm) {
          comm.barrier();  // everyone reaches the same point first
          if (layout.process_index == 1 &&
              comm.rank() == static_cast<int>(layout.local_begin())) {
            std::raise(SIGKILL);  // simulate a crashed worker process
          }
          // Survivors block on traffic only the dead process could send;
          // only abort propagation can release them.
          comm.barrier();
          (void)comm.allreduce_sum({1.0});
        });
        return {1.0};
      });
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - started;
  EXPECT_FALSE(outcome.ok);
  EXPECT_FALSE(outcome.error.empty());
  EXPECT_LT(elapsed.count(), 30.0);
}

TEST(ProcessWorld, RejectsInProcessKind) {
  // A one-process world is refused: it needs no launcher (construct
  // CommWorld directly).
  ProcessWorldConfig config;
  config.processes = 1;
  EXPECT_THROW(run_process_world(config,
                                 [](CommWorld&, const WorldLayout&) {
                                   return std::vector<double>{};
                                 }),
               TransportError);
}

}  // namespace
}  // namespace mwr::parallel::transport
