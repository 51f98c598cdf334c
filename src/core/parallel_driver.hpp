// SPMD drivers: the MWU algorithms executed for real over the
// message-passing substrate, one rank per agent.
//
// The sequential MwuStrategy implementations are the fast path the
// evaluation harness sweeps with (Tables II-IV); these drivers exist to
// demonstrate and *measure* the communication patterns the paper analyzes
// in Table I:
//
//   Standard    — every cycle ends in a centralized reduction of the
//                 per-option reward counts (gather to rank 0 + broadcast),
//                 so the heaviest-hit node receives O(n) messages;
//   Distributed — every cycle each agent sends one observation request to
//                 a uniformly random neighbor, so the heaviest-hit node
//                 receives the balls-into-bins maximum,
//                 O(ln n / ln ln n) with high probability.
//
// Both drivers return the standard MwuResult plus the measured per-cycle
// maximum congestion so benches/tests can check the bounds empirically.
#pragma once

#include <cstddef>

#include "core/mwu.hpp"
#include "parallel/comm.hpp"
#include "parallel/transport/process_world.hpp"
#include "util/stats.hpp"

namespace mwr::core {

/// Result of an SPMD run: the algorithm outcome plus congestion statistics
/// (per-cycle maximum over nodes, aggregated over cycles).
struct ParallelMwuResult {
  MwuResult result;
  util::RunningStats max_congestion_per_cycle;
  std::uint64_t total_messages = 0;
  /// Order-independent fingerprint of the final per-rank choices: the sum
  /// over ranks of a 32-bit hash of (rank, final choice).  Exact in a
  /// double up to ~2^20 ranks; equal across transports iff every rank
  /// ended on the same choice — the cross-backend bit-identity pin.
  double trajectory_hash = 0.0;
};

/// Runs Standard MWU with `num_agents` ranks, each evaluating one probe per
/// cycle; weights are replicated and advanced identically on every rank from
/// the allreduced reward counts.  The oracle must be safe for concurrent
/// sampling (distinct RngStreams per rank).
///
/// `policy` selects the execution substrate (the bounded superstep engine
/// by default, or the thread-per-rank reference); the trajectory is
/// bit-identical either way because every recv is (source, tag)-filtered
/// over non-overtaking channels and all randomness lives in per-rank
/// streams — the schedule cannot reorder what any rank observes.
[[nodiscard]] ParallelMwuResult run_standard_spmd(
    const CostOracle& oracle, const MwuConfig& config, std::uint64_t seed,
    parallel::RunPolicy policy = {});

/// Runs Distributed MWU with one rank per population member.  Population is
/// taken from config via distributed_population() unless
/// `population_override` is nonzero (tests keep it small).  Under the
/// default policy every population runs on the superstep engine —
/// thousands of logical ranks on hardware_concurrency OS threads — with
/// the same bit-identical-trajectory guarantee as above.
/// Only observation requests are congestion-tracked; replies and
/// convergence snapshots are harness bookkeeping.
[[nodiscard]] ParallelMwuResult run_distributed_spmd(
    const CostOracle& oracle, const MwuConfig& config, std::uint64_t seed,
    std::size_t population_override = 0, parallel::RunPolicy policy = {});

/// How run_distributed_spmd_multiprocess splits the population across
/// worker processes (over the socketpair fabric, parallel/transport/).
struct MultiprocessOptions {
  std::size_t processes = 2;
  double timeout_seconds = 120.0;
};

/// Distributed MWU across forked worker processes: the identical per-rank
/// program as run_distributed_spmd — same per-rank RngStreams, same
/// message pattern — executed over the socketpair fabric, one contiguous
/// rank block per process.  Congestion statistics are the world-wide
/// per-cycle maxima (every process records the same reduction),
/// total_messages is summed across processes, evaluations is iterations x
/// population as in-process, and the
/// trajectory_hash is pinned equal to the in-process run by test.  The
/// oracle must be process-independent (pure function of (option, rng)) —
/// each worker holds its own copy-on-write instance.
[[nodiscard]] ParallelMwuResult run_distributed_spmd_multiprocess(
    const CostOracle& oracle, const MwuConfig& config, std::uint64_t seed,
    std::size_t population_override, const MultiprocessOptions& options);

}  // namespace mwr::core
