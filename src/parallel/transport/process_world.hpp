// Fork-based launcher for multi-process worlds.
//
// run_process_world() builds the socketpair fabric and one result channel
// per worker (a socketpair to the parent) *before* forking, forks one
// worker process per layout block, and supervises them: each child
// constructs its endpoint and CommWorld, runs the caller's body over its
// rank block, and reports on its result channel — its values as one
// kMessage frame, or its error text as the bytes of one kShutdown frame.
// The parent pumps the result channels while it reaps (so a report larger
// than a socket buffer cannot deadlock the worker), with a deadline after
// which it SIGKILLs stragglers rather than hang.  A worker that dies
// closes its sockets, so its peers read EOF and abort the world
// themselves.  The parent hosts no ranks — it is pure supervision, which
// keeps test harnesses and the mwr_worldd launcher out of the world's
// communication.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "parallel/comm.hpp"
#include "parallel/transport/transport.hpp"

namespace mwr::parallel::transport {

/// Each worker runs its rank block on the superstep engine at CommWorld's
/// default worker count (hardware_concurrency).
struct ProcessWorldConfig {
  std::size_t global_ranks = 2;
  std::size_t processes = 2;
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

/// The function each worker process runs.  The returned doubles land in
/// ProcessWorldOutcome::values; one report frame carries them, so they are
/// bounded by FrameStream::kMaxFrameBytes (about 512Ki doubles).
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
