// FrameStream, the one framed socket stream under Endpoint, ControlConn and
// run_process_world's result channels: its read buffer stays bounded while
// every frame arrives split across writes, and its read and write halves
// can be driven by different threads — a drain thread reading while ranks
// write under a peer lock, the way Endpoint uses it.  StreamListener
// replaces a stale socket at its path but never deletes any other file.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "parallel/transport/frame_stream.hpp"
#include "util/sync.hpp"

namespace mwr::parallel::transport {
namespace {

/// Writes all of [data, data + size) with raw sends; false once the peer
/// is gone.
bool send_bytes(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Frame `i` of a stream: its payload size is a fixed hash of `i`.
WireFrame numbered_frame(std::uint64_t i) {
  WireFrame frame = WireFrame::control(FrameKind::kResult, i);
  frame.bytes.assign(1 + (i * 2654435761u) % 12000,
                     static_cast<std::uint8_t>(i));
  return frame;
}

std::string unique_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("mwr-" + tag + "-" + std::to_string(::getpid()) + ".sock"))
      .string();
}

TEST(StreamListener, ReplacesAStaleSocketAndServes) {
  const std::string path = unique_path("listener-stale");
  std::filesystem::remove(path);
  // A socket bound and closed without unlinking leaves its file behind,
  // as a killed owner's does.
  const int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(stale, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof(addr.sun_path));
  std::copy(path.begin(), path.end(), addr.sun_path);
  ASSERT_EQ(::bind(stale, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ::close(stale);
  ASSERT_TRUE(std::filesystem::is_socket(path));

  StreamListener listener(path);
  FrameStream client(connect_stream(path, 1000));
  ASSERT_TRUE(wait_ready({}, 1000, &listener));
  const int served_fd = listener.accept_fd();
  ASSERT_GE(served_fd, 0);
  FrameStream served(served_fd);
  const WireFrame frame = numbered_frame(7);
  ASSERT_TRUE(client.send_frame(frame));
  const auto got = served.recv_frame(1000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, frame);
}

TEST(StreamListener, LeavesARegularFileAtThePathUntouched) {
  const std::string path = unique_path("listener-regular");
  const std::string contents = "precious bytes\n\x01\x02";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
  }
  try {
    const StreamListener listener(path);
    ADD_FAILURE() << "bound over a regular file";
  } catch (const TransportError& error) {
    EXPECT_NE(std::string(error.what()).find(path), std::string::npos)
        << error.what();
  }
  std::ifstream in(path, std::ios::binary);
  const std::string kept((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(kept, contents);
  std::filesystem::remove(path);
}

TEST(FrameStream, ReadBufferStaysBoundedWhileEveryFrameArrivesSplit) {
  constexpr std::size_t kStreamBytes = std::size_t{64} << 20;
  auto [writer, reader] = FrameStream::connected_pair();

  // Every write ends in the middle of a frame, so no read ever ends on a
  // frame boundary: a buffer that only resets when it does would grow
  // with every byte received.
  std::uint64_t frames_written = 0;
  std::thread producer([&, fd = writer->fd()] {
    std::vector<std::uint8_t> pending;
    std::size_t total = 0;
    while (total < kStreamBytes) {
      const std::size_t start = pending.size();
      encode_frame(numbered_frame(frames_written++), pending);
      total += pending.size() - start;
      const std::size_t cut = start + (pending.size() - start) / 2;
      if (!send_bytes(fd, pending.data(), cut)) return;
      pending.erase(pending.begin(),
                    pending.begin() + static_cast<std::ptrdiff_t>(cut));
    }
    (void)send_bytes(fd, pending.data(), pending.size());
    ::shutdown(fd, SHUT_WR);
  });

  std::uint64_t received = 0;
  std::size_t largest_buffer = 0;
  bool in_order = true;
  try {
    while (const auto frame = reader->recv_frame(60000)) {
      in_order &= *frame == numbered_frame(received);
      ++received;
      largest_buffer = std::max(largest_buffer, reader->read_buffer_bytes());
    }
  } catch (const std::exception& e) {
    ADD_FAILURE() << e.what();
  }
  reader.reset();  // a producer still writing sees EPIPE and stops
  producer.join();
  EXPECT_TRUE(in_order);
  EXPECT_EQ(received, frames_written);
  EXPECT_LE(largest_buffer, 2 * FrameStream::kReadChunkBytes);
}

TEST(FrameStreamConcurrency, DrainThreadReadsWhileRanksWriteUnderAPeerLock) {
  constexpr int kRanks = 4;
  constexpr std::uint64_t kFramesPerRank = 4000;
  constexpr std::size_t kBatchBytes = 32 * 1024;
  auto [a, b] = FrameStream::connected_pair();

  // One side of a two-process world: `kRanks` threads write frames under
  // the peer lock (flushing a full batch inline, the rest at the end)
  // while a drain thread reads the other side's frames off the same
  // stream until its kShutdown.  Returns the frames each rank's
  // counterpart sent, in arrival order.
  const auto run_side = [&](FrameStream& stream) {
    util::Mutex write_mutex;
    std::vector<std::vector<std::uint64_t>> seen(kRanks);
    std::thread drain([&] {
      try {
        while (const auto frame = stream.recv_frame(60000)) {
          if (frame->kind == FrameKind::kShutdown) return;
          seen.at(static_cast<std::size_t>(frame->source))
              .push_back(frame->value);
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << "drain: " << e.what();
      }
    });
    std::vector<std::thread> ranks;
    for (int r = 0; r < kRanks; ++r) {
      ranks.emplace_back([&, r] {
        try {
          for (std::uint64_t i = 0; i < kFramesPerRank; ++i) {
            WireFrame frame =
                WireFrame::message(r, 0, 0, {static_cast<double>(i)}, true);
            frame.value = i;
            util::MutexLock lock(write_mutex);
            stream.queue_frame(frame);
            if (stream.outbound_bytes() >= kBatchBytes) {
              ASSERT_TRUE(stream.write_all());
            }
          }
        } catch (const std::exception& e) {
          ADD_FAILURE() << "rank " << r << ": " << e.what();
        }
      });
    }
    for (std::thread& t : ranks) t.join();
    {
      util::MutexLock lock(write_mutex);
      stream.queue_frame(WireFrame::control(FrameKind::kShutdown, 0));
      EXPECT_TRUE(stream.write_all());
    }
    drain.join();
    return seen;
  };

  std::vector<std::vector<std::uint64_t>> seen_by_a;
  std::thread side_a([&] { seen_by_a = run_side(*a); });
  const std::vector<std::vector<std::uint64_t>> seen_by_b = run_side(*b);
  side_a.join();

  std::vector<std::uint64_t> expected(kFramesPerRank);
  for (std::uint64_t i = 0; i < kFramesPerRank; ++i) expected[i] = i;
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(seen_by_a[static_cast<std::size_t>(r)], expected) << r;
    EXPECT_EQ(seen_by_b[static_cast<std::size_t>(r)], expected) << r;
  }
}

TEST(FrameStreamConcurrency, ShutdownWakesABlockedReader) {
  auto [a, b] = FrameStream::connected_pair();
  std::optional<WireFrame> got = WireFrame{};
  std::thread drain([&, stream = a.get()] {
    try {
      got = stream->recv_frame();
    } catch (const std::exception& e) {
      ADD_FAILURE() << e.what();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  a->shutdown();  // the abort path: no frame will ever come
  drain.join();
  EXPECT_FALSE(got.has_value());
  // The peer sees the same end of stream.
  EXPECT_FALSE(b->recv_frame(10000).has_value());
}

}  // namespace
}  // namespace mwr::parallel::transport
