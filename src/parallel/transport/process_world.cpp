#include "parallel/transport/process_world.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>

#include <csignal>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

namespace mwr::parallel::transport {

namespace {

// One per worker process in the MAP_SHARED result arena, followed by the
// bytes of `result_width` doubles.  `status` is the publication point:
// the child stores it (release) last, the parent loads it (acquire)
// before trusting the rest of the slot.
struct ResultSlot {
  std::atomic<std::uint32_t> status;  // 0 pending, 1 ok, 2 failed
  std::uint32_t value_count;
  char error[240];
};

constexpr std::uint32_t kPending = 0;
constexpr std::uint32_t kOk = 1;
constexpr std::uint32_t kFailed = 2;

struct Arena {
  void* base = nullptr;
  std::size_t bytes = 0;
  std::size_t stride = 0;

  ~Arena() {
    if (base != nullptr) ::munmap(base, bytes);
  }

  ResultSlot& slot(std::size_t process) noexcept {
    return *reinterpret_cast<ResultSlot*>(static_cast<std::uint8_t*>(base) +
                                          stride * process);
  }
  /// The value bytes that follow process `process`'s slot header.
  std::uint8_t* values(std::size_t process) noexcept {
    return static_cast<std::uint8_t*>(base) + stride * process +
           sizeof(ResultSlot);
  }
};

void map_arena(Arena& arena, std::size_t processes, std::size_t width) {
  arena.stride = sizeof(ResultSlot) + sizeof(double) * width;
  arena.bytes = arena.stride * processes;
  arena.base = ::mmap(nullptr, arena.bytes, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (arena.base == MAP_FAILED) {
    arena.base = nullptr;
    throw TransportError("mmap of result arena failed");
  }
  for (std::size_t p = 0; p < processes; ++p) new (&arena.slot(p)) ResultSlot{};
}

void write_slot_failed(ResultSlot& slot, const char* what) noexcept {
  std::strncpy(slot.error, what, sizeof(slot.error) - 1);
  slot.error[sizeof(slot.error) - 1] = '\0';
  slot.status.store(kFailed, std::memory_order_release);
}

/// Runs in the forked worker; must not return into the caller's stack
/// frames beyond this function (the caller _exits with the result).
int child_main(const ProcessWorldConfig& config, std::size_t index,
               const std::shared_ptr<UdsFabric>& fabric, Arena& arena,
               const ProcessBody& body) noexcept {
  ResultSlot& slot = arena.slot(index);
  try {
    Endpoint endpoint(fabric, index);
    const WorldLayout layout{config.global_ranks, config.processes, index};
    CommWorld world(layout, &endpoint, config.policy);
    const std::vector<double> values = body(world, layout);
    if (values.size() > config.result_width)
      throw TransportError("process body returned more than " +
                           std::to_string(config.result_width) + " values");
    slot.value_count = static_cast<std::uint32_t>(values.size());
    if (!values.empty())
      std::memcpy(arena.values(index), values.data(),
                  values.size() * sizeof(double));
    slot.status.store(kOk, std::memory_order_release);
    return 0;
  } catch (const std::exception& e) {
    write_slot_failed(slot, e.what());
    return 1;
  } catch (...) {
    write_slot_failed(slot, "unknown error in worker");
    return 1;
  }
}

}  // namespace

ProcessWorldOutcome run_process_world(const ProcessWorldConfig& config,
                                      const ProcessBody& body) {
  if (config.processes < 2)
    throw TransportError("run_process_world needs >= 2 processes");
  if (config.global_ranks < config.processes)
    throw TransportError("run_process_world: fewer ranks than processes");

  // Everything shared is created before the first fork so children inherit
  // it: the fabric and the result slots.
  const auto fabric = UdsFabric::create(config.processes, config.global_ranks);
  Arena arena;
  map_arena(arena, config.processes, config.result_width);

  ProcessWorldOutcome outcome;
  const auto fail = [&outcome](const std::string& why) {
    if (outcome.error.empty()) outcome.error = why;
  };
  const auto fail_from_slot = [&](std::size_t p) {
    char buffer[sizeof(ResultSlot::error)];
    std::memcpy(buffer, arena.slot(p).error, sizeof(buffer));
    buffer[sizeof(buffer) - 1] = '\0';
    fail("worker " + std::to_string(p) + ": " + buffer);
  };

  std::vector<pid_t> pids(config.processes, -1);
  for (std::size_t p = 0; p < config.processes; ++p) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      fail(std::string("fork: ") + std::strerror(errno));
      break;
    }
    if (pid == 0) {
      // Worker process.  _exit (not exit): do not run the parent's atexit
      // chain or flush its stdio buffers twice.
      ::_exit(child_main(config, p, fabric, arena, body));
    }
    pids[p] = pid;
  }

  // The launcher must not keep socket ends open: a dead (or never forked)
  // worker's peers learn of its absence through EOF, which the parent's
  // copies would mask.
  fabric->close_all();

  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.timeout_seconds));
  // After the deadline the workers get a short grace window to finish
  // before the launcher resorts to SIGKILL.
  const auto kill_deadline = deadline + std::chrono::seconds(5);
  bool killed = false;

  std::size_t live = 0;
  for (const pid_t pid : pids) {
    if (pid > 0) ++live;
  }
  while (live > 0) {
    for (std::size_t p = 0; p < config.processes; ++p) {
      if (pids[p] <= 0) continue;
      int status = 0;
      const pid_t r = ::waitpid(pids[p], &status, WNOHANG);
      if (r == 0) continue;
      pids[p] = -1;
      --live;
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) continue;
      if (WIFSIGNALED(status)) {
        fail("worker " + std::to_string(p) + " killed by signal " +
             std::to_string(WTERMSIG(status)));
      } else if (arena.slot(p).status.load(std::memory_order_acquire) ==
                 kFailed) {
        fail_from_slot(p);
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
      for (const pid_t pid : pids) {
        if (pid > 0) ::kill(pid, SIGKILL);
      }
      killed = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  outcome.values.resize(config.processes);
  for (std::size_t p = 0; p < config.processes; ++p) {
    ResultSlot& slot = arena.slot(p);
    const std::uint32_t status = slot.status.load(std::memory_order_acquire);
    if (status == kOk) {
      outcome.values[p].resize(slot.value_count);
      if (slot.value_count != 0)
        std::memcpy(outcome.values[p].data(), arena.values(p),
                    slot.value_count * sizeof(double));
    } else if (status == kFailed) {
      fail_from_slot(p);
    } else if (status == kPending) {
      fail("worker " + std::to_string(p) + " never reported");
    }
  }
  outcome.ok = outcome.error.empty();
  return outcome;
}

}  // namespace mwr::parallel::transport
