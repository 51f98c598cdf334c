#include "parallel/transport/process_world.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

namespace mwr::parallel::transport {

namespace {

/// poll() timeout of one supervision round.
constexpr int kSuperviseMs = 5;
/// How long the parent waits for a reaped worker's unread report.
constexpr int kReportGraceMs = 1000;

WireFrame failure_report(const std::string& what) {
  WireFrame frame = WireFrame::control(FrameKind::kShutdown, 0);
  frame.bytes.assign(what.begin(), what.end());
  return frame;
}

/// Runs in the forked worker; must not return into the caller's stack
/// frames beyond this function (the caller _exits with the result).
int child_main(const ProcessWorldConfig& config, std::size_t index,
               const std::shared_ptr<UdsFabric>& fabric,
               FrameStream& results, const ProcessBody& body) noexcept {
  WireFrame report;
  try {
    Endpoint endpoint(fabric, index);
    const WorldLayout layout{config.global_ranks, config.processes, index};
    CommWorld world(layout, &endpoint);
    report = WireFrame::message(0, 0, 0, body(world, layout), false);
  } catch (const std::exception& e) {
    report = failure_report(e.what());
  } catch (...) {
    report = failure_report("unknown error in worker");
  }
  try {
    results.queue_frame(report);
    if (results.write_all() && report.kind == FrameKind::kMessage) return 0;
  } catch (...) {
  }
  return 1;
}

}  // namespace

ProcessWorldOutcome run_process_world(const ProcessWorldConfig& config,
                                      const ProcessBody& body) {
  if (config.processes < 2)
    throw TransportError("run_process_world needs >= 2 processes");
  if (config.global_ranks < config.processes)
    throw TransportError("run_process_world: fewer ranks than processes");

  // Everything shared is created before the first fork so children inherit
  // it: the fabric and each worker's result channel.
  const auto fabric = UdsFabric::create(config.processes, config.global_ranks);
  struct Worker {
    pid_t pid = -1;
    std::unique_ptr<FrameStream> results;  ///< parent's end; null once done.
    std::unique_ptr<FrameStream> child_end;
    std::optional<WireFrame> report;
  };
  std::vector<Worker> workers(config.processes);
  for (Worker& w : workers)
    std::tie(w.results, w.child_end) = FrameStream::connected_pair();

  ProcessWorldOutcome outcome;
  const auto fail = [&outcome](const std::string& why) {
    if (outcome.error.empty()) outcome.error = why;
  };
  const auto report_text = [](const WireFrame& report) {
    return std::string(report.bytes.begin(), report.bytes.end());
  };

  for (std::size_t p = 0; p < config.processes; ++p) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      fail(std::string("fork: ") + std::strerror(errno));
      break;
    }
    if (pid == 0) {
      // Worker process: keep only its own end of its own channel, so the
      // parent sees EOF on a channel exactly when its worker is gone.
      // _exit (not exit): do not run the parent's atexit chain or flush
      // its stdio buffers twice.
      std::unique_ptr<FrameStream> mine = std::move(workers[p].child_end);
      workers.clear();
      ::_exit(child_main(config, p, fabric, *mine, body));
    }
    workers[p].pid = pid;
  }

  // The launcher must not keep socket ends open: a dead (or never forked)
  // worker's peers learn of its absence through EOF, which the parent's
  // copies would mask.
  fabric->close_all();
  for (Worker& w : workers) w.child_end.reset();

  // Reads what worker p's channel holds and keeps its first frame as the
  // report.  A channel at EOF, or carrying garbage, is closed.
  const auto pump_report = [&](std::size_t p) {
    Worker& w = workers[p];
    std::vector<WireFrame> frames;
    bool open = false;
    try {
      open = w.results->pump(frames);
    } catch (const std::exception& e) {
      fail("worker " + std::to_string(p) + ": " + e.what());
    }
    if (!frames.empty()) w.report = std::move(frames.front());
    if (!open) w.results.reset();
  };

  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.timeout_seconds));
  // After the deadline the workers get a short grace window to finish
  // before the launcher resorts to SIGKILL.
  const auto kill_deadline = deadline + std::chrono::seconds(5);
  bool killed = false;

  std::size_t live = 0;
  for (const Worker& w : workers) {
    if (w.pid > 0) ++live;
  }
  while (live > 0) {
    std::vector<const FrameStream*> waiting;
    for (const Worker& w : workers) {
      if (w.results && !w.report) waiting.push_back(w.results.get());
    }
    (void)wait_ready(waiting, kSuperviseMs);
    for (std::size_t p = 0; p < config.processes; ++p) {
      if (workers[p].results && !workers[p].report) pump_report(p);
    }
    for (std::size_t p = 0; p < config.processes; ++p) {
      Worker& w = workers[p];
      if (w.pid <= 0) continue;
      int status = 0;
      if (::waitpid(w.pid, &status, WNOHANG) == 0) continue;
      w.pid = -1;
      --live;
      if (!w.report && w.results) {
        try {
          w.report = w.results->recv_frame(kReportGraceMs);
        } catch (const std::exception& e) {
          fail("worker " + std::to_string(p) + ": " + e.what());
        }
      }
      w.results.reset();
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) continue;
      if (WIFSIGNALED(status)) {
        fail("worker " + std::to_string(p) + " killed by signal " +
             std::to_string(WTERMSIG(status)));
      } else if (w.report && w.report->kind == FrameKind::kShutdown) {
        fail("worker " + std::to_string(p) + ": " + report_text(*w.report));
      } else {
        fail("worker " + std::to_string(p) + " failed");
      }
    }
    if (live == 0) break;
    const auto now = Clock::now();
    if (now > deadline) {
      fail("process world timed out after " +
           std::to_string(config.timeout_seconds) + "s");
    }
    if (now > kill_deadline && !killed) {
      for (const Worker& w : workers) {
        if (w.pid > 0) ::kill(w.pid, SIGKILL);
      }
      killed = true;
    }
  }

  outcome.values.resize(config.processes);
  for (std::size_t p = 0; p < config.processes; ++p) {
    std::optional<WireFrame>& report = workers[p].report;
    if (!report) {
      fail("worker " + std::to_string(p) + " never reported");
    } else if (report->kind == FrameKind::kMessage) {
      outcome.values[p] = std::move(report->payload);
    } else {
      fail("worker " + std::to_string(p) + ": " + report_text(*report));
    }
  }
  outcome.ok = outcome.error.empty();
  return outcome;
}

}  // namespace mwr::parallel::transport
