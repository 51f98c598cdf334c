// The socket layer of the campaign server: MWRW frames over a real
// Unix-domain stream socket, the daemon's control loop (serve/
// control_loop.hpp), and ServeClient; plus the bound plan_campaign puts
// on a SUBMIT's pool precompute.  (Everything else socket-free about the
// server lives in test_serve.cpp.)
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "parallel/superstep.hpp"
#include "parallel/transport/wire.hpp"
#include "serve/client.hpp"
#include "serve/control.hpp"
#include "serve/checkpoint.hpp"
#include "serve/control_loop.hpp"
#include "serve/control_socket.hpp"
#include "serve/server.hpp"

namespace mwr::serve {
namespace {

using parallel::transport::FrameKind;
using parallel::transport::StreamListener;
using parallel::transport::wait_ready;
using parallel::transport::WireFrame;

std::string unique_socket_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("mwr-" + tag + "-" + std::to_string(::getpid()) + ".sock"))
      .string();
}

/// The accepted connection, or nullptr when none is queued.
std::unique_ptr<ControlConn> accept_one(StreamListener& listener) {
  const int fd = listener.accept_fd();
  return fd < 0 ? nullptr : std::make_unique<ControlConn>(fd);
}

TEST(ControlSocket, FramesRoundTripIncludingLargePayloads) {
  const std::string path = unique_socket_path("ctl-roundtrip");
  StreamListener listener(path);

  std::unique_ptr<ControlConn> client = connect_control(path);
  ASSERT_TRUE(wait_ready({}, 1000, &listener));
  std::unique_ptr<ControlConn> served = accept_one(listener);
  ASSERT_NE(served, nullptr);

  // Small control frame and a large one — wider than one 64 KiB read
  // chunk, but small enough to fit the kernel socket buffer (this test
  // queues both frames before draining, on a single thread).
  WireFrame small;
  small.kind = FrameKind::kStatus;
  small.value = 42;
  WireFrame large;
  large.kind = FrameKind::kSubmit;
  large.bytes.assign(96000, 0x5a);

  ASSERT_TRUE(client->send_frame(small));
  ASSERT_TRUE(client->send_frame(large));

  const auto got_small = served->recv_frame();
  ASSERT_TRUE(got_small.has_value());
  EXPECT_EQ(*got_small, small);
  const auto got_large = served->recv_frame();
  ASSERT_TRUE(got_large.has_value());
  EXPECT_EQ(*got_large, large);

  // Orderly EOF surfaces as nullopt, not an exception.
  client.reset();
  EXPECT_FALSE(served->recv_frame().has_value());
}

TEST(ControlSocket, PumpDrainsWithoutBlocking) {
  const std::string path = unique_socket_path("ctl-pump");
  StreamListener listener(path);
  std::unique_ptr<ControlConn> client = connect_control(path);
  std::unique_ptr<ControlConn> served;
  for (int i = 0; i < 100 && !served; ++i) {
    (void)wait_ready({}, 50, &listener);
    served = accept_one(listener);
  }
  ASSERT_NE(served, nullptr);

  std::vector<WireFrame> frames;
  EXPECT_TRUE(served->pump(frames));  // nothing queued: alive, no frames
  EXPECT_TRUE(frames.empty());

  ASSERT_TRUE(client->send_frame(encode_status_request(7)));
  ASSERT_TRUE(client->send_frame(encode_checkpoint_request()));
  for (int i = 0; i < 100 && frames.size() < 2; ++i) {
    (void)wait_ready({served.get()}, 50, &listener);
    ASSERT_TRUE(served->pump(frames));
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].kind, FrameKind::kStatus);
  EXPECT_EQ(frames[1].kind, FrameKind::kCheckpoint);
}

TEST(ControlSocket, PumpReportsDeadPeerAfterMidFrameEof) {
  const std::string path = unique_socket_path("ctl-midframe-eof");
  StreamListener listener(path);
  std::unique_ptr<ControlConn> client = connect_control(path);
  std::unique_ptr<ControlConn> served;
  for (int i = 0; i < 100 && !served; ++i) {
    (void)wait_ready({}, 50, &listener);
    served = accept_one(listener);
  }
  ASSERT_NE(served, nullptr);

  // One whole frame, then the first half of a second one, then close:
  // a peer dying mid-frame.
  const WireFrame whole = encode_status_request(7);
  std::vector<std::uint8_t> bytes;
  parallel::transport::encode_frame(whole, bytes);
  ASSERT_TRUE(client->send_frame(whole));
  const std::size_t half = bytes.size() / 2;
  ASSERT_GT(half, 0u);
  ASSERT_EQ(::send(client->fd(), bytes.data(), half, MSG_NOSIGNAL),
            static_cast<ssize_t>(half));
  client.reset();

  // The truncated tail can never complete, so pump must hand the caller
  // the whole frame and then report the connection dead — leaving it
  // resident turned the daemon's poll loop into a busy spin on an EOF'd
  // fd and leaked the connection forever.
  std::vector<WireFrame> frames;
  bool alive = true;
  for (int i = 0; i < 100 && alive; ++i) {
    (void)wait_ready({served.get()}, 50, &listener);
    alive = served->pump(frames);
  }
  EXPECT_FALSE(alive);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], whole);
}

/// The first bytes of a frame whose length prefix announces `body`
/// bytes: the prefix and the magic, nothing more.
std::vector<std::uint8_t> announce_frame(std::uint32_t body) {
  std::vector<std::uint8_t> bytes(8);
  std::memcpy(bytes.data(), &body, 4);
  std::memcpy(bytes.data() + 4, &parallel::transport::kWireMagic, 4);
  return bytes;
}

TEST(ControlSocket, RecvRejectsAFrameAnnouncedPastTheBound) {
  const std::string path = unique_socket_path("ctl-oversized");
  StreamListener listener(path);
  std::unique_ptr<ControlConn> client = connect_control(path);
  ASSERT_TRUE(wait_ready({}, 1000, &listener));
  std::unique_ptr<ControlConn> served = accept_one(listener);
  ASSERT_NE(served, nullptr);

  // Announced one byte past the bound; only the prefix ever arrives.
  const std::vector<std::uint8_t> bytes = announce_frame(
      static_cast<std::uint32_t>(ControlConn::kMaxOutboundBytes + 1));
  ASSERT_EQ(::send(client->fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  try {
    (void)served->recv_frame(/*timeout_ms=*/10000);
    ADD_FAILURE() << "recv_frame accepted an oversized frame";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("announced"), std::string::npos)
        << error.what();
  }
}

// mwr_served's control loop on a thread: serves until a SHUTDOWN has
// drained the server, then leaves the loop's counts in `stats`.
void daemon_loop(const std::string& path, std::size_t workers,
                 std::atomic<bool>* failed, ControlLoopStats* stats) {
  try {
    ServerConfig config;
    config.workers = workers;
    config.quantum = 8;
    CampaignServer server(config);
    StreamListener listener(path);
    ControlLoop loop(server, listener);
    loop.run();
    if (stats != nullptr) *stats = loop.stats();
    if (server.starved_epochs() != 0) *failed = true;
  } catch (...) {
    *failed = true;
  }
}

// Joins the daemon thread even when an ASSERT bails out of the test
// body early (a joinable std::thread destructor would call terminate).
struct DaemonHandle {
  std::string path;
  std::thread thread;
  ~DaemonHandle() {
    if (!thread.joinable()) return;
    try {
      (void)ServeClient(path, /*connect_timeout_ms=*/1000).shutdown();
    } catch (...) {
      // Daemon already gone; the join below returns immediately.
    }
    thread.join();
  }
};

TEST(ServeClient, SubmitsPollsAndFetchesResultsOverTheWire) {
  const std::string path = unique_socket_path("ctl-e2e");
  std::atomic<bool> daemon_failed{false};
  DaemonHandle daemon{
      path, std::thread(daemon_loop, path, std::size_t{2}, &daemon_failed,
                        nullptr)};

  {
    ServeClient client(path);
    const std::vector<std::string> families = {"units", "Chart26", "Math8"};
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 6; ++i) {
      SubmitRequest request;
      request.scenario = families[static_cast<std::size_t>(i) % 3];
      request.bugs = 2;
      request.pool_target = 120;
      request.pool_attempts = 10000;
      request.arms = 16;
      request.agents = 4;
      request.max_iterations = 50;
      request.repair_seed = 500 + static_cast<std::uint64_t>(i);
      const SubmitReply reply = client.submit(request);
      ASSERT_TRUE(reply.accepted);
      ids.push_back(reply.campaign_id);
    }

    // Unknown scenarios are rejected without killing the daemon.
    SubmitRequest bogus;
    bogus.scenario = "no-such-program";
    EXPECT_FALSE(client.submit(bogus).accepted);

    for (const std::uint64_t id : ids) {
      StatusReply status;
      for (int i = 0; i < 10000; ++i) {
        status = client.status(id);
        if (status.done) break;
      }
      ASSERT_TRUE(status.known);
      ASSERT_TRUE(status.done) << "campaign " << id << " never finished";
      EXPECT_EQ(status.bugs_total, 2u);
      EXPECT_NE(status.trajectory_hash, 0u);

      const ResultReply result = client.result(id);
      ASSERT_TRUE(result.ready);
      EXPECT_NE(result.outcome_json.find("\"mwr-campaign-outcome-v1\""),
                std::string::npos);
      EXPECT_NE(result.outcome_json.find("\"mode\": \"campaign\""),
                std::string::npos);
    }

    EXPECT_EQ(client.status(9999).known, false);
    EXPECT_EQ(client.result(9999).ready, false);
    (void)client.shutdown();
  }

  daemon.thread.join();
  EXPECT_FALSE(daemon_failed.load());
}

// --- the precompute bound ----------------------------------------------

// A SUBMIT's pool precompute runs unpreempted inside the epoch sweep, so
// its budget is capped at admission: past kMaxPoolAttempts, or a target
// past the budget, is refused; the serving sizes stay admitted.
SubmitRequest pool_request(std::uint32_t target, std::uint32_t attempts) {
  SubmitRequest request;
  request.scenario = "units";
  request.pool_target = target;
  request.pool_attempts = attempts;
  return request;
}

TEST(PlanCampaign, RejectsAPoolBudgetPastTheDefault) {
  EXPECT_NO_THROW((void)plan_campaign(pool_request(150, kMaxPoolAttempts)));
  EXPECT_THROW((void)plan_campaign(pool_request(150, kMaxPoolAttempts + 1)),
               std::invalid_argument);
}

TEST(PlanCampaign, RejectsAPoolTargetPastItsBudget) {
  EXPECT_NO_THROW((void)plan_campaign(pool_request(10000, 10000)));
  EXPECT_THROW((void)plan_campaign(pool_request(10001, 10000)),
               std::invalid_argument);
}

TEST(PlanCampaign, RejectsMaximalPoolFieldsAndAdmitsServingSizes) {
  constexpr std::uint32_t kMax = 0xffffffffu;
  EXPECT_THROW((void)plan_campaign(pool_request(kMax, kMax)),
               std::invalid_argument);
  EXPECT_THROW((void)plan_campaign(pool_request(150, kMax)),
               std::invalid_argument);
  EXPECT_THROW((void)plan_campaign(pool_request(kMax, 10000)),
               std::invalid_argument);
  // The sizes the serve bench, the end-to-end fleets and these tests use.
  const CampaignPlan plan = plan_campaign(pool_request(150, 10000));
  EXPECT_EQ(plan.config.pool.target_size, 150u);
  EXPECT_EQ(plan.config.pool.max_attempts, 10000u);
  EXPECT_NO_THROW((void)plan_campaign(pool_request(120, 10000)));
  EXPECT_NO_THROW((void)plan_campaign(SubmitRequest{}));
}

// --- the control loop --------------------------------------------------

SubmitRequest loop_request(std::uint64_t seed) {
  SubmitRequest request;
  request.scenario = seed % 2 == 0 ? "units" : "Math8";
  request.bugs = 2;
  request.pool_target = 120;
  request.pool_attempts = 10000;
  request.arms = 16;
  request.agents = 4;
  request.max_iterations = 50;
  request.repair_seed = seed;
  return request;
}

/// The next frame on `conn`; throws when none arrives within 10 s, so a
/// hung daemon fails the test instead of hanging it.
std::optional<WireFrame> recv_within(ControlConn& conn) {
  return conn.recv_frame(/*timeout_ms=*/10000);
}

WireFrame request_reply(ControlConn& conn, const WireFrame& request) {
  if (!conn.send_frame(request)) throw std::runtime_error("daemon gone");
  std::optional<WireFrame> reply = recv_within(conn);
  if (!reply) throw std::runtime_error("daemon closed the connection");
  return *std::move(reply);
}

/// Submits one campaign on `conn` and polls it to completion; returns
/// its id.
std::uint64_t run_one_campaign(ControlConn& conn, std::uint64_t seed) {
  const SubmitReply submitted = decode_submit_reply(
      request_reply(conn, encode_submit_request(loop_request(seed))));
  if (!submitted.accepted) throw std::runtime_error("submission rejected");
  for (int i = 0; i < 100000; ++i) {
    if (decode_status_reply(request_reply(
                                conn, encode_status_request(
                                          submitted.campaign_id)))
            .done)
      return submitted.campaign_id;
  }
  throw std::runtime_error("campaign never finished");
}

TEST(ControlLoop, EngineCallerHookRunsExactlyOnce) {
  for (const std::size_t workers : {1, 2, 4}) {
    parallel::SuperstepEngine engine(1, {workers});
    for (const std::size_t count : {0, 1, 3, 100}) {
      std::atomic<std::size_t> calls{0};
      std::atomic<std::size_t> swept{0};
      std::thread::id hook_thread;
      engine.parallel_for(
          count, [&](std::size_t) { swept.fetch_add(1); },
          [&](const parallel::SuperstepEngine::Release&) {
            calls.fetch_add(1);
            hook_thread = std::this_thread::get_id();
          });
      EXPECT_EQ(calls.load(), 1u) << workers << " workers, " << count;
      EXPECT_EQ(swept.load(), count);
      EXPECT_EQ(hook_thread, std::this_thread::get_id());
    }
    // A throwing hook neither cancels the sweep nor wedges the engine.
    std::atomic<std::size_t> swept{0};
    EXPECT_THROW(engine.parallel_for(
                     64, [&](std::size_t) { swept.fetch_add(1); },
                     [](const parallel::SuperstepEngine::Release&) {
                       throw std::runtime_error("hook");
                     }),
                 std::runtime_error);
    EXPECT_EQ(swept.load(), 64u);
    engine.parallel_for(8, [&](std::size_t) { swept.fetch_add(1); });
    EXPECT_EQ(swept.load(), 72u);
  }
}

TEST(ControlLoop, KeepsServingOneReaderWhileItsOtherConnectionsStall) {
  const std::string path = unique_socket_path("loop-slow-reader");
  std::atomic<bool> daemon_failed{false};
  ControlLoopStats stats;
  DaemonHandle daemon{
      path, std::thread(daemon_loop, path, std::size_t{2}, &daemon_failed,
                        &stats)};

  // One client, three connections.  The first runs a campaign; the other
  // two ask for its result, many times over, and do not read.
  std::unique_ptr<ControlConn> reader = connect_control(path);
  std::unique_ptr<ControlConn> idle_a = connect_control(path);
  std::unique_ptr<ControlConn> idle_b = connect_control(path);
  const std::uint64_t id = run_one_campaign(*reader, 4);
  const ResultReply expected = decode_result_reply(
      request_reply(*reader, encode_result_request(id)));
  ASSERT_TRUE(expected.ready);

  // Far more reply bytes than the socket buffers hold, far fewer than
  // the outbound bound.
  constexpr std::size_t kUnread = 200;
  ASSERT_LT(kUnread * parallel::transport::encoded_size(
                          encode_result_reply(expected)),
            ControlConn::kMaxOutboundBytes);
  for (std::size_t i = 0; i < kUnread; ++i) {
    ASSERT_TRUE(idle_a->send_frame(encode_result_request(id)));
    ASSERT_TRUE(idle_b->send_frame(encode_result_request(id)));
  }

  // With blocking sends the daemon would now sit in send() on one of the
  // stalled connections, and this reader would wait forever.
  for (int i = 0; i < 50; ++i) {
    const StatusReply status = decode_status_reply(
        request_reply(*reader, encode_status_request(id)));
    ASSERT_TRUE(status.done);
  }
  const std::uint64_t second = run_one_campaign(*reader, 5);
  EXPECT_NE(second, id);

  // Then the stalled connections drain, every reply intact and in order.
  for (ControlConn* conn : {idle_a.get(), idle_b.get()}) {
    for (std::size_t i = 0; i < kUnread; ++i) {
      const std::optional<WireFrame> reply = recv_within(*conn);
      ASSERT_TRUE(reply.has_value()) << "reply " << i << " never came";
      EXPECT_EQ(decode_result_reply(*reply), expected);
    }
  }

  (void)decode_shutdown_reply(
      request_reply(*reader, encode_shutdown_request()));
  daemon.thread.join();
  EXPECT_FALSE(daemon_failed.load());
  EXPECT_EQ(stats.peers_dropped, 0u);
}

TEST(ControlLoop, DropsAPeerPastTheOutboundBoundAndServesTheRest) {
  const std::string path = unique_socket_path("loop-bound");
  std::atomic<bool> daemon_failed{false};
  ControlLoopStats stats;
  DaemonHandle daemon{
      path, std::thread(daemon_loop, path, std::size_t{2}, &daemon_failed,
                        &stats)};

  std::unique_ptr<ControlConn> good = connect_control(path);
  std::unique_ptr<ControlConn> hog = connect_control(path);
  const std::uint64_t id = run_one_campaign(*good, 6);
  const WireFrame result =
      request_reply(*good, encode_result_request(id));
  ASSERT_TRUE(decode_result_reply(result).ready);

  // Requests whose replies add up to twice the bound, none read.
  const std::size_t requests =
      2 * ControlConn::kMaxOutboundBytes /
          parallel::transport::encoded_size(result) +
      1;
  std::size_t sent = 0;
  while (sent < requests && hog->send_frame(encode_result_request(id)))
    ++sent;

  // The hog is cut off: what it reads ends early, in EOF or a reset (the
  // daemon closed with replies still queued).
  std::size_t received = 0;
  try {
    while (recv_within(*hog).has_value()) ++received;
  } catch (const std::runtime_error&) {
  }
  EXPECT_LT(received, requests);

  // Everyone else is still served.
  const StatusReply status = decode_status_reply(
      request_reply(*good, encode_status_request(id)));
  EXPECT_TRUE(status.done);
  EXPECT_NE(run_one_campaign(*good, 7), id);

  (void)decode_shutdown_reply(
      request_reply(*good, encode_shutdown_request()));
  daemon.thread.join();
  EXPECT_FALSE(daemon_failed.load());
  EXPECT_EQ(stats.peers_dropped, 1u);
}

TEST(ControlLoop, DropsAPeerThatAnnouncesAnOversizedFrame) {
  const std::string path = unique_socket_path("loop-oversized");
  std::atomic<bool> daemon_failed{false};
  ControlLoopStats stats;
  DaemonHandle daemon{
      path, std::thread(daemon_loop, path, std::size_t{2}, &daemon_failed,
                        &stats)};

  std::unique_ptr<ControlConn> good = connect_control(path);
  std::unique_ptr<ControlConn> trickler = connect_control(path);

  // A 5 MiB frame is announced and a few of its bytes sent.  Unbounded,
  // the daemon would keep buffering it as long as the peer trickles.
  constexpr std::uint32_t kAnnounced = 5u << 20;
  ASSERT_GT(kAnnounced, ControlConn::kMaxOutboundBytes);
  std::vector<std::uint8_t> bytes = announce_frame(kAnnounced);
  bytes.resize(bytes.size() + 16, 0);
  ASSERT_EQ(::send(trickler->fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));

  // The daemon closes that connection: the peer reads EOF (or a reset),
  // not a timeout.
  EXPECT_FALSE(recv_within(*trickler).has_value());

  // Everyone else is still served, SUBMIT through RESULT.
  const std::uint64_t id = run_one_campaign(*good, 8);
  EXPECT_TRUE(
      decode_result_reply(request_reply(*good, encode_result_request(id)))
          .ready);

  (void)decode_shutdown_reply(
      request_reply(*good, encode_shutdown_request()));
  daemon.thread.join();
  EXPECT_FALSE(daemon_failed.load());
  EXPECT_EQ(stats.peers_dropped, 1u);
}

/// STATUS and RESULT for every id, in one batch.
std::vector<WireFrame> status_and_result_requests(
    const std::vector<std::uint64_t>& ids) {
  std::vector<WireFrame> requests;
  for (const std::uint64_t id : ids) {
    requests.push_back(encode_status_request(id));
    requests.push_back(encode_result_request(id));
  }
  return requests;
}

/// The encoded reply bytes to `requests`, answered by `answer_now`.
std::vector<std::uint8_t> replies_to(ControlConn& client,
                                     const std::vector<WireFrame>& requests,
                                     const std::function<void()>& answer_now) {
  for (const WireFrame& request : requests) {
    if (!client.send_frame(request)) throw std::runtime_error("daemon gone");
  }
  answer_now();
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::optional<WireFrame> reply = recv_within(client);
    if (!reply) throw std::runtime_error("no reply");
    parallel::transport::encode_frame(*reply, bytes);
  }
  return bytes;
}

TEST(ControlLoop, RepliesDuringASweepMatchRepliesBetweenEpochs) {
  // Per epoch: the replies to one batch answered between epochs, then to
  // the same batch answered while the next epoch's campaigns step.  Both
  // describe the campaigns as of the last join, at any worker count.
  std::vector<std::vector<std::uint8_t>> reference;
  for (const std::size_t workers : {1, 2, 4}) {
    const std::string path = unique_socket_path(
        "loop-mid-sweep-" + std::to_string(workers));
    ServerConfig config;
    config.workers = workers;
    config.quantum = 3;
    CampaignServer server(config);
    StreamListener listener(path);
    ControlLoop loop(server, listener);
    std::unique_ptr<ControlConn> client = connect_control(path);
    (void)loop.serve_pending();  // accepts the client

    std::vector<std::uint64_t> ids;
    for (std::uint64_t seed = 20; seed < 24; ++seed)
      ASSERT_TRUE(client->send_frame(encode_submit_request(loop_request(seed))));
    (void)loop.serve_pending();
    for (int i = 0; i < 4; ++i) {
      const std::optional<WireFrame> reply = recv_within(*client);
      ASSERT_TRUE(reply.has_value());
      const SubmitReply submitted = decode_submit_reply(*reply);
      ASSERT_TRUE(submitted.accepted);
      ids.push_back(submitted.campaign_id);
    }

    const std::vector<WireFrame> batch = status_and_result_requests(ids);
    std::vector<std::vector<std::uint8_t>> per_epoch;
    while (server.resident() > 0) {
      const std::vector<std::uint8_t> between =
          replies_to(*client, batch, [&] { (void)loop.serve_pending(); });
      const std::vector<std::uint8_t> mid_sweep =
          replies_to(*client, batch, [&] { ASSERT_TRUE(loop.run_epoch()); });
      ASSERT_EQ(mid_sweep, between) << "epoch " << per_epoch.size();
      per_epoch.push_back(between);
      ASSERT_LT(per_epoch.size(), 10000u);
    }
    per_epoch.push_back(
        replies_to(*client, batch, [&] { (void)loop.serve_pending(); }));

    EXPECT_GT(per_epoch.size(), 3u);
    EXPECT_EQ(loop.stats().frames_mid_sweep,
              (per_epoch.size() - 1) * batch.size());
    EXPECT_EQ(loop.stats().peers_dropped, 0u);
    std::vector<std::uint8_t> all;
    for (const auto& bytes : per_epoch)
      all.insert(all.end(), bytes.begin(), bytes.end());
    if (reference.empty()) {
      reference.push_back(std::move(all));
    } else {
      EXPECT_EQ(all, reference.front()) << workers << " workers";
    }
  }
}

TEST(ControlLoop, CheckpointMidSweepWaitsForTheJoinInRequestOrder) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("mwr-loop-ckpt-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const std::string path = unique_socket_path("loop-ckpt");
  ServerConfig config;
  config.workers = 2;
  config.quantum = 1;
  config.checkpoint_dir = dir.string();
  CampaignServer server(config);
  StreamListener listener(path);
  ControlLoop loop(server, listener);
  std::unique_ptr<ControlConn> client = connect_control(path);
  (void)loop.serve_pending();

  std::vector<std::uint64_t> ids;
  for (std::uint64_t seed = 30; seed < 32; ++seed) {
    ASSERT_TRUE(client->send_frame(encode_submit_request(loop_request(seed))));
    (void)loop.serve_pending();
    const std::optional<WireFrame> reply = recv_within(*client);
    ASSERT_TRUE(reply.has_value());
    ids.push_back(decode_submit_reply(*reply).campaign_id);
  }
  for (int epoch = 0; epoch < 3; ++epoch) ASSERT_TRUE(loop.run_epoch());
  const std::uint64_t cycles_before = server.status(ids[0]).online_cycles;

  // STATUS, CHECKPOINT, STATUS on one connection, all read by the hook.
  ASSERT_TRUE(client->send_frame(encode_status_request(ids[0])));
  ASSERT_TRUE(client->send_frame(encode_checkpoint_request()));
  ASSERT_TRUE(client->send_frame(encode_status_request(ids[0])));
  ASSERT_TRUE(loop.run_epoch());
  EXPECT_EQ(loop.stats().checkpoints_parked, 1u);

  std::vector<WireFrame> replies;
  for (int i = 0; i < 3; ++i) {
    std::optional<WireFrame> reply = recv_within(*client);
    ASSERT_TRUE(reply.has_value());
    replies.push_back(*std::move(reply));
  }
  ASSERT_EQ(replies[0].kind, FrameKind::kStatus);
  ASSERT_EQ(replies[1].kind, FrameKind::kCheckpoint);
  ASSERT_EQ(replies[2].kind, FrameKind::kStatus);
  // The first STATUS was answered mid-sweep, the rest after the join.
  EXPECT_EQ(decode_status_reply(replies[0]).online_cycles, cycles_before);
  EXPECT_EQ(decode_status_reply(replies[2]).online_cycles, cycles_before + 1);
  const CheckpointReply checkpoint = decode_checkpoint_reply(replies[1]);
  EXPECT_EQ(checkpoint.campaigns, 2u);
  EXPECT_GT(checkpoint.bytes, 0u);
  // It captured the joined epoch: nothing has progressed since.
  EXPECT_EQ(server.checkpoint_all().bytes, 0u);
  for (const std::uint64_t id : ids) {
    const CampaignCheckpoint restored = read_checkpoint_file(
        (dir / ("campaign-" + std::to_string(id) + ".ckpt")).string());
    EXPECT_EQ(restored.campaign_id, id);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mwr::serve
