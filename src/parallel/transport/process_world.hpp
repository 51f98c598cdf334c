// Fork-based launcher for multi-process worlds.
//
// run_process_world() builds the socketpair fabric and a small MAP_SHARED
// result arena *before* forking, forks one worker process per layout
// block, and supervises them: each child constructs its endpoint and
// CommWorld, runs the caller's body over its rank block, and reports
// through its result slot; the parent reaps with a deadline and SIGKILLs
// stragglers rather than hang.  A worker that dies closes its sockets,
// so its peers read EOF and abort the world themselves.  The parent hosts
// no ranks — it is pure supervision, which keeps test harnesses and the
// mwr_worldd launcher out of the world's communication.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "parallel/comm.hpp"
#include "parallel/transport/transport.hpp"

namespace mwr::parallel::transport {

struct ProcessWorldConfig {
  std::size_t global_ranks = 2;
  std::size_t processes = 2;
  RunPolicy policy{};
  /// Doubles each worker's body may return: the width of its result slot.
  /// A body that returns more fails its worker.
  std::size_t result_width = 0;
  /// Wall-clock budget for the whole world; on expiry the world fails and
  /// the workers are killed after a short grace window.
  double timeout_seconds = 120.0;
};

struct ProcessWorldOutcome {
  bool ok = false;
  /// First failure seen (child error, abnormal exit, or parent timeout).
  std::string error;
  /// Per-process values returned by the child bodies.
  std::vector<std::vector<double>> values;
};

/// The function each worker process runs.  The returned doubles (at most
/// ProcessWorldConfig::result_width) land in the process's result slot.
using ProcessBody = std::function<std::vector<double>(
    CommWorld& world, const WorldLayout& layout)>;

/// Forks config.processes workers, runs `body` in each, and supervises to
/// completion.  Never throws for worker failures (they land in the
/// outcome); throws TransportError only when the fabric itself cannot be
/// set up, or when fewer than two processes are asked for — a one-process
/// world needs no launcher (construct CommWorld directly).
ProcessWorldOutcome run_process_world(const ProcessWorldConfig& config,
                                      const ProcessBody& body);

}  // namespace mwr::parallel::transport
