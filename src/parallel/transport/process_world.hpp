// Fork-based launcher for multi-process worlds.
//
// run_process_world() builds the requested fabric (shm ring or UDS) and a
// small MAP_SHARED result arena *before* forking, forks one worker process
// per layout block, and supervises them: each child constructs its
// endpoint and CommWorld, runs the caller's body over its rank block, and
// reports through its result slot; the parent reaps with a deadline,
// propagates the first failure to the surviving workers (shm abort flag /
// closed sockets), and SIGKILLs stragglers rather than hang.  The parent
// itself hosts no ranks — it is pure supervision, which keeps test
// harnesses and the mwr_worldd launcher out of the world's communication.
//
// The arena also carries one u32 slot per *global rank* (per-rank weight
// state such as the rank's adopted option), memory-mapped so the parent
// reads every rank's final state without any extra message traffic — the
// scaling path toward 10^5-rank worlds where gathering state through rank
// 0 would itself be a congestion hotspot.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "parallel/comm.hpp"
#include "parallel/transport/shm_ring.hpp"
#include "parallel/transport/transport.hpp"

namespace mwr::parallel::transport {

struct ProcessWorldConfig {
  std::size_t global_ranks = 2;
  std::size_t processes = 2;
  TransportKind kind = TransportKind::kShmRing;
  RunPolicy policy{};
  std::size_t ring_bytes = ShmFabric::kDefaultRingBytes;
  /// Wall-clock budget for the whole world; on expiry the parent aborts
  /// the fabric and kills the workers.
  double timeout_seconds = 120.0;
};

/// What one child body returns through its result slot (capped at
/// kMaxResultDoubles values; more is a child-side error).
inline constexpr std::size_t kMaxResultDoubles = 256;

struct ProcessWorldOutcome {
  bool ok = false;
  /// First failure seen (child error, abnormal exit, or parent timeout).
  std::string error;
  /// Per-process values returned by the child bodies.
  std::vector<std::vector<double>> values;
  /// Final contents of the per-global-rank shared u32 array.
  std::vector<std::uint32_t> rank_state;
};

/// The function each worker process runs.  `rank_state` points at the
/// shared per-global-rank u32 array (global_ranks entries); ranks may
/// write their own slot at any time.  The returned doubles land in the
/// process's result slot.
using ProcessBody = std::function<std::vector<double>(
    CommWorld& world, const WorldLayout& layout, std::uint32_t* rank_state)>;

/// Forks config.processes workers, runs `body` in each, and supervises to
/// completion.  Never throws for worker failures (they land in the
/// outcome); throws TransportError only when the fabric itself cannot be
/// set up, or when fewer than two processes are asked for — a one-process
/// world needs no launcher (construct CommWorld directly).
ProcessWorldOutcome run_process_world(const ProcessWorldConfig& config,
                                      const ProcessBody& body);

}  // namespace mwr::parallel::transport
