#include "parallel/transport/process_world.hpp"

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>

#include <csignal>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include "parallel/transport/uds.hpp"

namespace mwr::parallel::transport {

namespace {

// One per worker process in the MAP_SHARED result arena.  `status` is the
// publication point: the child stores it (release) last, the parent loads
// it (acquire) before trusting the rest of the slot.
struct ResultSlot {
  std::atomic<std::uint32_t> status;  // 0 pending, 1 ok, 2 failed
  std::uint32_t value_count;
  char error[240];
  double values[kMaxResultDoubles];
};

constexpr std::uint32_t kPending = 0;
constexpr std::uint32_t kOk = 1;
constexpr std::uint32_t kFailed = 2;

struct Arena {
  void* base = nullptr;
  std::size_t bytes = 0;
  ResultSlot* slots = nullptr;
  std::uint32_t* rank_state = nullptr;

  ~Arena() {
    if (base != nullptr) ::munmap(base, bytes);
  }
};

void map_arena(Arena& arena, std::size_t processes, std::size_t ranks) {
  arena.bytes = sizeof(ResultSlot) * processes + sizeof(std::uint32_t) * ranks;
  arena.base = ::mmap(nullptr, arena.bytes, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (arena.base == MAP_FAILED) {
    arena.base = nullptr;
    throw TransportError("mmap of result arena failed");
  }
  arena.slots = static_cast<ResultSlot*>(arena.base);
  for (std::size_t p = 0; p < processes; ++p) new (&arena.slots[p]) ResultSlot{};
  arena.rank_state = reinterpret_cast<std::uint32_t*>(
      static_cast<std::uint8_t*>(arena.base) + sizeof(ResultSlot) * processes);
}

void write_slot_failed(ResultSlot& slot, const char* what) noexcept {
  std::strncpy(slot.error, what, sizeof(slot.error) - 1);
  slot.error[sizeof(slot.error) - 1] = '\0';
  slot.status.store(kFailed, std::memory_order_release);
}

/// Runs in the forked worker; must not return into the caller's stack
/// frames beyond this function (the caller _exits with the result).
int child_main(const ProcessWorldConfig& config, std::size_t index,
               const std::shared_ptr<ShmFabric>& shm,
               const std::shared_ptr<UdsFabric>& uds, Arena& arena,
               const ProcessBody& body) noexcept {
  ResultSlot& slot = arena.slots[index];
  try {
    std::unique_ptr<Endpoint> endpoint;
    if (config.kind == TransportKind::kShmRing) {
      endpoint = std::make_unique<ShmEndpoint>(shm, index);
    } else {
      endpoint = std::make_unique<UdsEndpoint>(uds, index);
    }
    const WorldLayout layout{config.global_ranks, config.processes, index};
    CommWorld world(layout, endpoint.get(), config.policy);
    std::vector<double> values = body(world, layout, arena.rank_state);
    if (values.size() > kMaxResultDoubles)
      throw TransportError("process body returned more than " +
                           std::to_string(kMaxResultDoubles) + " values");
    slot.value_count = static_cast<std::uint32_t>(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) slot.values[i] = values[i];
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
  // it: the fabric, the result slots, and the per-rank state array.
  std::shared_ptr<ShmFabric> shm;
  std::shared_ptr<UdsFabric> uds;
  if (config.kind == TransportKind::kShmRing) {
    shm = ShmFabric::create(config.processes, config.global_ranks,
                            config.ring_bytes);
  } else {
    uds = UdsFabric::create(config.processes, config.global_ranks);
  }
  Arena arena;
  map_arena(arena, config.processes, config.global_ranks);

  ProcessWorldOutcome outcome;
  const auto fail = [&outcome](const std::string& why) {
    if (outcome.error.empty()) outcome.error = why;
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
      ::_exit(child_main(config, p, shm, uds, arena, body));
    }
    pids[p] = pid;
  }

  // The launcher must not keep socket ends open: a dead worker's peers
  // learn of its death through EOF, which the parent's copies would mask.
  if (uds) uds->close_all();

  const auto abort_world = [&](const std::string& why) {
    if (shm) shm->abort_world(why.c_str());
    // UDS needs nothing: a failed worker's sockets are already closed.
  };
  if (!outcome.error.empty()) abort_world(outcome.error);

  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.timeout_seconds));
  // After the deadline the world gets a short grace window to unwind off
  // the abort flag before the launcher resorts to SIGKILL.
  const auto kill_deadline = deadline + std::chrono::seconds(5);
  bool abort_sent = !outcome.error.empty();
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
      } else if (arena.slots[p].status.load(std::memory_order_acquire) ==
                 kFailed) {
        char buffer[sizeof(ResultSlot::error)];
        std::memcpy(buffer, arena.slots[p].error, sizeof(buffer));
        buffer[sizeof(buffer) - 1] = '\0';
        fail("worker " + std::to_string(p) + ": " + buffer);
      } else {
        fail("worker " + std::to_string(p) + " failed");
      }
      if (!abort_sent) {
        abort_world(outcome.error);
        abort_sent = true;
      }
    }
    if (live == 0) break;
    const auto now = Clock::now();
    if (now > deadline && !abort_sent) {
      fail("process world timed out after " +
           std::to_string(config.timeout_seconds) + "s");
      abort_world(outcome.error);
      abort_sent = true;
    }
    if (now > kill_deadline && !killed) {
      fail("process world timed out; killing stragglers");
      for (const pid_t pid : pids) {
        if (pid > 0) ::kill(pid, SIGKILL);
      }
      killed = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  outcome.values.resize(config.processes);
  for (std::size_t p = 0; p < config.processes; ++p) {
    ResultSlot& slot = arena.slots[p];
    const std::uint32_t status = slot.status.load(std::memory_order_acquire);
    if (status == kOk) {
      outcome.values[p].assign(slot.values, slot.values + slot.value_count);
    } else if (status == kFailed) {
      char buffer[sizeof(slot.error)];
      std::memcpy(buffer, slot.error, sizeof(buffer));
      buffer[sizeof(buffer) - 1] = '\0';
      fail("worker " + std::to_string(p) + ": " + buffer);
    } else if (status == kPending) {
      fail("worker " + std::to_string(p) + " never reported");
    }
  }
  outcome.rank_state.assign(arena.rank_state,
                            arena.rank_state + config.global_ranks);
  outcome.ok = outcome.error.empty();
  return outcome;
}

}  // namespace mwr::parallel::transport
