// Bounded-thread superstep execution engine.
//
// Runs P logical ranks as cooperative fibers multiplexed onto W worker
// threads (default: hardware_concurrency), so population scale is a
// parameter instead of an OS-thread wall.  The pool is persistent: workers
// are spawned on first use and idle between jobs (a bounded spin, then
// parked), fiber stacks are recycled run-to-run, and the same pool serves
// both fiber scheduling (run) and fiberless sweeps (parallel_for) — an
// engine resident in a server costs no thread spawn/join per epoch.
// Blocking points in the communication substrate (Mailbox::recv,
// CountingBarrier) suspend the *fiber* through the coop hook
// (parallel/coop.hpp); barriers thereby become superstep boundaries —
// between two barriers the engine simply drains the runnable set —
// instead of P parked OS threads.
//
// Determinism: the engine adds no randomness and imposes no ordering the
// thread-per-rank substrate did not already allow.  Every recv is filtered
// by (source, tag) over non-overtaking per-channel queues and every rank
// draws from its private RngStream, so any legal interleaving — including
// the engine's, at any worker count — produces bit-identical trajectories
// (pinned by tests/test_superstep.cpp and the driver bit-identity tests).
//
// Failure handling improves on thread-per-rank: when every unfinished rank
// is blocked (a rank threw while peers wait on it, or a genuine protocol
// deadlock), the engine unwinds the blocked fibers by making their
// suspension throw SuperstepAbort — stacks run their destructors — and
// run() rethrows the first body exception, or reports the deadlock.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "parallel/coop.hpp"
#include "parallel/fiber.hpp"

namespace mwr::parallel {

/// Thrown through a blocked rank's stack when the engine unwinds it; only
/// the engine itself catches this.  Deliberately not derived from
/// std::exception so rank bodies' catch(const std::exception&) handlers
/// cannot swallow the unwind.
struct SuperstepAbort {};

class SuperstepEngine : public CoopScheduler {
  struct Impl;

 public:
  struct Config {
    std::size_t workers = 0;  ///< 0 = hardware_concurrency.
  };

  SuperstepEngine(std::size_t ranks, Config config);
  /// Parks, then joins, the persistent worker pool.  Workers only idle
  /// between jobs — run()/parallel_for() return once every worker that
  /// joined the job has left it — so by the time the destructor can
  /// legally run no thread holds the engine lock and no fiber stack is
  /// live; there is no shutdown lock ordering to get wrong (the engine
  /// lock itself is innermost by construction; see the Impl::mutex note
  /// in the .cpp).
  ~SuperstepEngine() override;

  SuperstepEngine(const SuperstepEngine&) = delete;
  SuperstepEngine& operator=(const SuperstepEngine&) = delete;

  /// Runs body(rank) for every rank in [0, ranks) to completion on the
  /// worker pool.  Rethrows the first exception any body threw; throws
  /// std::runtime_error when unfinished ranks deadlocked (after unwinding
  /// them).  Reusable: the engine may be run any number of times — worker
  /// threads are spawned once on first use and idle between jobs, and
  /// each rank's fiber stack is allocated once and recycled across runs
  /// (the epoch-pipeline contract, DESIGN.md §14).  Calls must not overlap
  /// or nest; a body must not call run()/parallel_for() on its own engine
  /// (such a call throws std::logic_error, except that a one-worker
  /// parallel_for runs inline).
  void run(const std::function<void(int)>& body);

  /// A parallel_for producer's handle on its sweep: `release(end)` makes
  /// items [0, end) claimable.  Marks only grow (a smaller end is a
  /// no-op) and clamp to the sweep's count.  Everything the producer wrote
  /// before a release happens-before every fn call on a released item.
  class Release {
   public:
    void operator()(std::size_t end) const;

   private:
    friend class SuperstepEngine;
    Release(Impl* impl, std::size_t count) noexcept
        : impl_(impl), count_(count) {}
    Impl* impl_;  // null on an inline sweep: releasing is a no-op.
    std::size_t count_;
  };
  using Producer = std::function<void(const Release&)>;

  /// Fiberless data-parallel sweep: runs fn(i) for every i in [0, count)
  /// on the persistent pool, with the caller participating.  The index
  /// space is split into contiguous chunks by a pure function of (count,
  /// workers, whether a producer streams the items) *before* fan-out, so
  /// the work decomposition is deterministic; fn must be safe to call
  /// concurrently for distinct i and order-free (the probe-wave contract
  /// — each call's result must not depend on its schedule).  With
  /// workers() <= 1 the sweep runs inline on the caller with no wakeups.
  /// Rethrows the first exception any fn call threw, after the sweep
  /// drains.  Same no-overlap rule as run().
  ///
  /// Without a `producer` every item is claimable from the start.  With
  /// one, the producer runs exactly once on the calling thread, after the
  /// workers are woken, and items become claimable only as it releases
  /// them, one item per claim — so it can stage item i and release it
  /// into the running sweep.  When the producer returns or throws, every
  /// remaining item is released and the caller joins the drain.  With
  /// workers() <= 1, or nothing to sweep, it runs inline before the loop
  /// (releasing is then a no-op).  It must not touch state fn writes.
  /// An exception from the producer does not cancel the sweep; it is
  /// rethrown after the drain unless an fn call threw first.
  ///
  /// The call returns once every item is done and every worker that
  /// joined the sweep has left it.  A worker that wakes after the sweep
  /// closed skips it, so a parked worker never delays the caller.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn,
                    const Producer& producer = {});

  /// Called from an fn of a running parallel_for with a producer: blocks
  /// until items [0, end) are released (end must not exceed the sweep's
  /// count), with the same happens-before as claiming them.  Lets an item
  /// trail the producer, e.g. to consume what it stages in order.
  void await_release(std::size_t end);

  [[nodiscard]] std::size_t ranks() const noexcept;
  [[nodiscard]] std::size_t workers() const noexcept;

  // CoopScheduler interface (called from primitives via coop_current()).
  void suspend_current() override;
  void wake(int rank) override;
  void note_superstep_boundary() noexcept override;
  void note_external_wait(int delta) noexcept override;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace mwr::parallel
