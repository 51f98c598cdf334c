// Message-passing communicator, modeled on the MPI subset the paper's
// algorithms need.
//
// Substitution note (DESIGN.md §2): the paper's Distributed MWU targets
// distributed-memory clusters.  This container has no MPI runtime, so we
// provide an MPI-shaped substrate that runs on the bounded-thread
// superstep engine (parallel/superstep.hpp), which multiplexes logical
// ranks as cooperative fibers over a fixed worker pool and scales to
// thousands of ranks on a handful of hardware threads.  Classic
// one-OS-thread-per-rank survives only as an explicit reference policy:
// point-to-point send/recv (non-overtaking per channel), barrier,
// broadcast, gather, and allreduce(sum) behave identically on both, and
// seeded SPMD trajectories are bit-identical, pinned by tests.  Every
// delivered message is attributed to its destination in a
// CongestionTracker, which is the quantity the paper's communication
// analysis is actually about.
//
// Usage follows the SPMD pattern of the LLNL MPI tutorial: construct a
// CommWorld of `size` ranks, then run one function per rank, each receiving
// its Comm handle:
//
//   CommWorld world(8);
//   world.run([&](Comm& comm) { ... comm.rank() ... comm.barrier(); ... });
//
// Multi-process worlds (the transport seam, DESIGN.md §11): the same
// CommWorld can be one *process's share* of a larger world.  A
// WorldLayout names the global size and this process's contiguous rank
// block; a transport::Endpoint (UDS socketpairs, parallel/transport/)
// carries frames to the sibling processes.  Local ranks run as superstep
// fibers; sends to remote ranks are encoded as WireFrames and batched
// across the seam, and one drain thread per peer feeds remote messages
// into the local mailboxes.  Barriers extend across processes via a marker
// exchange performed in the local barrier's completion slot, and
// barrier_close_cycle() additionally reduces the per-process congestion
// maxima so every process records the identical world-wide per-cycle
// maximum.  An in-process world is simply the one-process layout with no
// endpoint: every rank is local, and every send takes the same route into
// a local mailbox that a multi-process world uses for its own block.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "parallel/barrier.hpp"
#include "parallel/congestion.hpp"
#include "parallel/mailbox.hpp"

namespace mwr::parallel {

namespace transport {
class Endpoint;
}  // namespace transport

class CommWorld;

/// How a global world is split across processes: `processes` contiguous
/// rank blocks, sized as evenly as possible (the first global_size %
/// processes blocks get one extra rank).  Every process derives the same
/// block map from the same (global_size, processes) pair.
struct WorldLayout {
  std::size_t global_size = 1;
  std::size_t processes = 1;
  std::size_t process_index = 0;

  [[nodiscard]] static std::size_t block_begin(std::size_t global_size,
                                               std::size_t processes,
                                               std::size_t process) noexcept;
  [[nodiscard]] static std::size_t block_count(std::size_t global_size,
                                               std::size_t processes,
                                               std::size_t process) noexcept;
  /// Which process hosts global rank `rank`.
  [[nodiscard]] static std::size_t owner_of(std::size_t global_size,
                                            std::size_t processes,
                                            std::size_t rank) noexcept;

  [[nodiscard]] std::size_t local_begin() const noexcept {
    return block_begin(global_size, processes, process_index);
  }
  [[nodiscard]] std::size_t local_count() const noexcept {
    return block_count(global_size, processes, process_index);
  }
};

/// How CommWorld::run maps logical ranks onto OS threads.  Every world
/// runs on the superstep engine unless the caller asks for the
/// thread-per-rank reference, so every default world gets deadlock
/// detection and the SuperstepAbort unwind.
struct RunPolicy {
  enum class Mode {
    /// Cooperative fibers on a bounded worker pool — the default.
    kSuperstep,
    /// One OS thread per rank: the historical substrate, kept only as the
    /// explicit reference identity tests and benches compare against.
    /// No deadlock detection: a blocked world hangs.
    kThreadPerRank,
  };

  Mode mode = Mode::kSuperstep;
  /// Superstep worker threads; 0 = hardware_concurrency.  Every fiber
  /// gets parallel/fiber.hpp's kFiberStackBytes of stack.
  std::size_t workers = 0;

  [[nodiscard]] static RunPolicy thread_per_rank() {
    return RunPolicy{Mode::kThreadPerRank, 0};
  }
  [[nodiscard]] static RunPolicy superstep(std::size_t workers = 0) {
    return RunPolicy{Mode::kSuperstep, workers};
  }
};

/// Per-rank handle: the API each SPMD agent programs against.
class Comm {
 public:
  Comm(CommWorld& world, int rank) noexcept : world_(&world), rank_(rank) {}

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept;

  /// Point-to-point send (asynchronous: enqueues into the destination's
  /// mailbox and records congestion at the destination).  Payloads up to
  /// PayloadVec::kInlineDoubles ride inside the envelope — no per-message
  /// heap allocation for the empty/observe-sized messages that dominate at
  /// large populations.
  void send(int destination, int tag, PayloadVec payload);

  /// Like send(), but exempt from congestion accounting.  Experiments use
  /// this for harness bookkeeping (replies, convergence snapshots) so the
  /// tracker measures only the algorithm's own communication pattern.
  void send_untracked(int destination, int tag, PayloadVec payload);

  /// Blocking receive with optional source/tag filters.
  [[nodiscard]] Message recv(int source = kAnySource, int tag = kAnyTag);

  /// Non-blocking receive.
  [[nodiscard]] std::optional<Message> try_recv(int source = kAnySource,
                                                int tag = kAnyTag);

  /// Global synchronization (pure barrier; no congestion bookkeeping).
  void barrier();

  /// Barrier whose completion closes the congestion cycle: the last
  /// arriving rank captures the heaviest-hit node's message count into the
  /// tracker statistics and resets the counters, after every rank's sends
  /// of the cycle are recorded and before any rank can send for the next
  /// one.  All ranks call this once per cycle.
  void barrier_close_cycle();

  /// Root's payload is distributed to every rank; all ranks return it.
  /// Throws std::out_of_range on every rank when `root` is not a rank.
  [[nodiscard]] std::vector<double> broadcast(int root,
                                              std::vector<double> payload);

  /// Every rank contributes a payload; root returns all of them indexed by
  /// rank, non-roots return an empty vector.
  [[nodiscard]] std::vector<std::vector<double>> gather(
      int root, std::vector<double> payload);

  /// Elementwise sum across ranks; every rank returns the reduced vector.
  /// All contributions must have identical length.  Centralized (gather to
  /// rank 0 + broadcast): the root absorbs n-1 messages per call — the
  /// O(n) congestion Table I charges Standard MWU for.
  [[nodiscard]] std::vector<double> allreduce_sum(std::vector<double> payload);

  /// Same reduction over a binomial tree: reduce up, broadcast down.  Any
  /// node receives at most ceil(log2 n) messages per call, trading the
  /// root hotspot for 2*ceil(log2 n) sequential rounds — the classic
  /// latency/congestion trade-off, measurable against allreduce_sum via
  /// the congestion tracker.
  [[nodiscard]] std::vector<double> allreduce_sum_tree(
      std::vector<double> payload);

  /// allreduce_sum_tree with congestion-exempt messages, for harness
  /// bookkeeping (e.g. the SPMD convergence snapshot): the O(log n)
  /// per-node collective without charging the algorithm's congestion
  /// account — the tree-shaped analogue of send_untracked().
  [[nodiscard]] std::vector<double> allreduce_sum_tree_untracked(
      std::vector<double> payload);

 private:
  /// The one delivery route behind every send: bounds check, sent-message
  /// telemetry, then a WireFrame when another process owns `destination`,
  /// else a push into the local mailbox (recorded in the congestion
  /// tracker when `tracked`).
  void deliver(int destination, int tag, PayloadVec payload, bool tracked);

  [[nodiscard]] std::vector<double> allreduce_tree_impl(
      std::vector<double> payload, bool tracked);

  CommWorld* world_;
  int rank_;
};

/// Owns the mailboxes, barrier, and congestion tracker shared by all local
/// ranks — the whole world in-process, or one process's block of a
/// multi-process world when constructed over a transport endpoint.
class CommWorld {
 public:
  explicit CommWorld(std::size_t size, RunPolicy policy = {});

  /// One process's share of a multi-process world.  `endpoint` (not owned;
  /// must outlive the world) connects to the sibling processes and must
  /// agree with `layout` on the process count.  Multi-process worlds
  /// always execute on the superstep engine: its blocked-world unwinding
  /// is what turns a peer death into clean exception propagation instead
  /// of a hang.  Passing nullptr with a single-process layout is the
  /// in-process world that CommWorld(size, policy) builds.
  CommWorld(const WorldLayout& layout, transport::Endpoint* endpoint,
            RunPolicy policy = {});

  ~CommWorld();
  CommWorld(const CommWorld&) = delete;
  CommWorld& operator=(const CommWorld&) = delete;

  /// Global world size (== local size for one-process worlds).
  [[nodiscard]] std::size_t size() const noexcept {
    return layout_.global_size;
  }
  [[nodiscard]] const WorldLayout& layout() const noexcept { return layout_; }
  [[nodiscard]] bool multiprocess() const noexcept {
    return endpoint_ != nullptr;
  }
  [[nodiscard]] const RunPolicy& policy() const noexcept { return policy_; }

  /// Runs one logical rank per `body(comm)` — as real threads or as
  /// engine fibers per the policy — and returns when all local ranks
  /// finished (for multi-process worlds: and the peer streams closed).
  /// Exceptions from any rank propagate to the caller (first one wins).
  /// In superstep mode a world where every unfinished rank is blocked is
  /// detected, unwound, and reported instead of hanging.
  void run(const std::function<void(Comm&)>& body);

  [[nodiscard]] const CongestionTracker& congestion() const noexcept {
    return tracker_;
  }

 private:
  friend class Comm;
  void run_thread_per_rank(const std::function<void(Comm&)>& body);
  void run_superstep(const std::function<void(Comm&)>& body);

  [[nodiscard]] std::size_t local_index(int global_rank) const noexcept {
    return static_cast<std::size_t>(global_rank) - layout_.local_begin();
  }

  /// Completion-slot body of a one-process barrier_close_cycle(): records
  /// the cycle's maximum and resets the counters.
  void close_local_cycle();

  // Multi-process machinery (all no-ops when endpoint_ == nullptr).
  void run_multiprocess(const std::function<void(Comm&)>& body);
  void drain_peer(std::size_t peer);
  void note_abort(const std::string& reason);
  void throw_if_aborted() const MWR_EXCLUDES(exchange_mutex_);
  /// Completion-slot body of a global barrier(): one marker round.
  /// Must not throw (it runs under the local barrier's lock) — failures
  /// become note_abort(), and released ranks throw via throw_if_aborted().
  void exchange_barrier_round() noexcept;
  /// Completion-slot body of barrier_close_cycle(): marker round (all
  /// cycle messages drained), maxima reduction, end_cycle with the global
  /// max, then a second marker round so no peer starts the next cycle
  /// before every process closed this one.
  void exchange_cycle_close() noexcept;
  /// One marker round: tell peers this process reached the next phase and
  /// wait until they all did.  Returns false when the world aborted.
  [[nodiscard]] bool marker_round();

  RunPolicy policy_;
  WorldLayout layout_;
  transport::Endpoint* endpoint_ = nullptr;
  std::vector<Mailbox> mailboxes_;
  CountingBarrier barrier_;
  CongestionTracker tracker_;

  // Cross-process barrier/close bookkeeping, fed by the drain threads.
  mutable util::Mutex exchange_mutex_;
  util::CondVar exchange_cv_;
  std::vector<std::uint64_t> markers_from_ MWR_GUARDED_BY(exchange_mutex_);
  std::vector<std::deque<std::uint64_t>> cycle_max_from_
      MWR_GUARDED_BY(exchange_mutex_);
  std::uint64_t marker_phase_ MWR_GUARDED_BY(exchange_mutex_) = 0;
  std::string abort_reason_ MWR_GUARDED_BY(exchange_mutex_);
  std::atomic<bool> aborted_{false};
  std::vector<std::thread> drains_;
};

// Tags reserved by the collectives; user tags should stay below 1 << 20.
inline constexpr int kTagBroadcast = 1 << 20;
inline constexpr int kTagGather = (1 << 20) + 1;
inline constexpr int kTagAllreduce = (1 << 20) + 2;
inline constexpr int kTagTreeReduce = (1 << 20) + 3;
inline constexpr int kTagTreeBcast = (1 << 20) + 4;

}  // namespace mwr::parallel
