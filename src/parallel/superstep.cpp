#include "parallel/superstep.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "obs/registry.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mwr::parallel {

namespace {
// Engine telemetry across every engine in the process: superstep (barrier)
// boundaries crossed, the deepest runnable backlog (how much logical
// parallelism the bounded pool had to absorb), total fiber slices, and
// parallel_for sweeps that fanned out to the workers.
struct EngineMetrics {
  obs::Counter& supersteps;
  obs::Gauge& runnable_ranks;
  obs::Counter& fiber_slices;
  obs::Counter& sweeps;

  EngineMetrics()
      : supersteps(obs::MetricsRegistry::global().counter(
            "spmd.engine.supersteps")),
        runnable_ranks(obs::MetricsRegistry::global().gauge(
            "spmd.engine.runnable_ranks")),
        fiber_slices(obs::MetricsRegistry::global().counter(
            "spmd.engine.fiber_slices")),
        sweeps(obs::MetricsRegistry::global().counter(
            "spmd.engine.sweeps")) {}
};

EngineMetrics& engine_metrics() {
  static EngineMetrics metrics;
  return metrics;
}

// How long an idle participant polls before it parks: a worker between
// jobs, or one waiting for a producer to release its next item.  Sized
// from campaign_single's online cycles, where the trajectory fold waits
// on a worker's wake-up: a worker there idles 15 us (median, 26 us p90)
// between leaving one cycle's sweep and the next cycle's submission, and
// a futex wake-up takes it 8.4 us (median) against 1.2 us for a spinning
// worker.  2048 `pause`s are 36 us at 17.5 ns per pause (a 4-vCPU x86
// VM), so the spin bridges the p90 gap; x86 cores with a shorter `pause`
// spin less and park more often, which costs a wake-up, not correctness.
// Against parking at once, the spin raised campaign_single's throughput
// in 14 of 18 alternating 20 s pairs (median pair ratios 1.04 and 1.10
// in two sets).  A count, not a clock: the engine reads no time.
constexpr int kIdleSpins = 2048;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Polls `ready` up to `spins` times; true once it holds.
template <typename Ready>
bool spin_until(int spins, const Ready& ready) {
  for (int i = 0; i < spins; ++i) {
    if (ready()) return true;
    cpu_relax();
  }
  return ready();
}

std::size_t hardware_threads() {
  const auto hw = static_cast<std::size_t>(std::thread::hardware_concurrency());
  return hw == 0 ? 1 : hw;
}

// The CPUs this process may run on: its affinity mask where the platform
// reports one, else the hardware thread count.  A cgroup CPU quota and a
// host that steals the VM's cores stay invisible here.
std::size_t usable_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
#endif
  return hardware_threads();
}

std::size_t resolve_workers(std::size_t requested) {
  return requested != 0 ? requested : hardware_threads();
}
}  // namespace

struct SuperstepEngine::Impl {
  enum class State : unsigned char { kRunnable, kRunning, kBlocked, kFinished };
  // What the persistent pool is currently doing.  Workers idle while
  // kIdle; a submission flips the mode, opens the job, bumps `epoch`, and
  // broadcasts.
  enum class Mode : unsigned char { kIdle, kFibers, kParallelFor };

  struct RankSlot {
    std::unique_ptr<Fiber> fiber;
    CoopToken token;
    State state = State::kRunnable;
    // A wake delivered while the rank was running (registered a waiter but
    // had not suspended yet): consumed when the rank next tries to block.
    bool wake_pending = false;
  };

  std::size_t nranks;
  std::size_t nworkers;
  // kIdleSpins while the workers and the caller each have a CPU the
  // process may use (usable_cpus); 0 (park at once) when the pool
  // oversubscribes them, where a spinning worker would take the CPU a
  // participant needs.
  int idle_spins = 0;

  // Engine shutdown lock ordering: `mutex` is the innermost lock — no
  // fiber body code runs while a worker holds it (fibers resume only
  // after the worker drops it), so it can never invert against the
  // Mailbox/CountingBarrier locks a rank body takes.
  util::Mutex mutex;
  // workers: new job / runnable rank / released items / shutdown.
  util::CondVar cv;
  util::CondVar done_cv;  // submitter: the job drained and its joiners left.

  // --- persistent pool (spawned lazily on first submission) ---
  std::vector<std::thread> threads;
  bool shutdown MWR_GUARDED_BY(mutex) = false;
  Mode mode MWR_GUARDED_BY(mutex) = Mode::kIdle;
  // Bumps per submission (and at shutdown).  Written under the lock; an
  // idle worker polls it unlocked before parking.
  std::atomic<std::uint64_t> epoch{0};
  // A job accepts joiners from its submission until the submitter closes
  // it (its items are all done); a worker that wakes after that skips it.
  bool job_open MWR_GUARDED_BY(mutex) = false;
  std::size_t joined MWR_GUARDED_BY(mutex) = 0;  // workers inside the job.

  // --- fiber-mode job state ---
  // `slots` is structurally written (resize, fiber/token setup) only in
  // run()'s pre-submission section, under the lock while the pool is
  // idle; per-slot state/wake_pending mutate under the lock for real.  A
  // worker resumes `slot.fiber` through a reference taken under the lock
  // while the slot is in State::kRunning, which the state machine makes
  // exclusive.
  std::vector<RankSlot> slots MWR_GUARDED_BY(mutex);
  // One lazily-allocated stack per rank, recycled across runs: run N+1's
  // fibers are seeded on run N's (cold again) stacks, so a resident
  // engine pays the stack allocations once, not once per epoch.
  std::vector<std::unique_ptr<char[]>> rank_stacks MWR_GUARDED_BY(mutex);
  std::deque<int> runnable MWR_GUARDED_BY(mutex);
  std::size_t unfinished MWR_GUARDED_BY(mutex) = 0;
  std::size_t running MWR_GUARDED_BY(mutex) = 0;
  // Ranks suspended in waits an external agent (a transport drain thread)
  // can satisfy; while nonzero, all-blocked is not a deadlock.
  std::size_t external_waiters MWR_GUARDED_BY(mutex) = 0;
  bool aborting MWR_GUARDED_BY(mutex) = false;
  std::size_t aborted_ranks MWR_GUARDED_BY(mutex) = 0;
  std::exception_ptr first_error MWR_GUARDED_BY(mutex);

  // --- parallel_for job state ---
  // The split is fixed before fan-out: chunk size is a pure function of
  // (count, nworkers, producer or not), and the atomic cursor hands out
  // the pre-decided contiguous chunks in order, each once the release
  // mark covers its end.  Participants read the job shape under the lock
  // before pulling chunks unlocked.
  const std::function<void(std::size_t)>* for_fn MWR_GUARDED_BY(mutex) =
      nullptr;
  std::size_t for_count MWR_GUARDED_BY(mutex) = 0;
  std::size_t for_chunk MWR_GUARDED_BY(mutex) = 1;
  std::atomic<std::size_t> for_cursor{0};
  // Items [0, for_released) are claimable.  Only the submitting thread
  // advances it (its producer, then the release of everything left).
  std::atomic<std::size_t> for_released{0};
  // The lowest mark a parked participant waits for (kNoneAwaited: none).
  // Waiters lower it and the producer resets it, both under the lock; the
  // producer takes the lock to notify only once its release reaches it.
  // Both sides use seq_cst (store the mark, then load the awaited one;
  // lower the awaited one, then load the mark), so a release cannot slip
  // between a waiter's check and its wait.
  static constexpr std::size_t kNoneAwaited = ~std::size_t{0};
  std::atomic<std::size_t> release_awaited{kNoneAwaited};

  // Makes `rank` runnable and pokes one worker.
  void enqueue_locked(int rank) MWR_REQUIRES(mutex) {
    slots[static_cast<std::size_t>(rank)].state = State::kRunnable;
    runnable.push_back(rank);
    engine_metrics().runnable_ranks.record_max(
        static_cast<double>(runnable.size()));
    cv.notify_one();
  }

  // If every unfinished rank is blocked, no progress is possible: unwind
  // them by requeuing with the abort flag set, so their suspension point
  // throws SuperstepAbort and the stacks unwind cleanly.
  void check_deadlock_locked() MWR_REQUIRES(mutex) {
    if (aborting || running != 0 || !runnable.empty() || unfinished == 0 ||
        external_waiters != 0)
      return;
    aborting = true;
    for (std::size_t r = 0; r < slots.size(); ++r) {
      if (slots[r].state == State::kBlocked) {
        ++aborted_ranks;
        enqueue_locked(static_cast<int>(r));
      }
    }
    cv.notify_all();
  }

  // Spawns the pool on first submission (idempotent).  Lazy so an engine
  // that is constructed but never driven costs no threads, and so a
  // single-worker engine used purely for inline parallel_for sweeps
  // never spawns at all.
  void ensure_threads_locked() MWR_REQUIRES(mutex) {
    if (!threads.empty()) return;
    threads.reserve(nworkers);
    for (std::size_t w = 0; w < nworkers; ++w) {
      threads.emplace_back([this] { worker_loop(); });
    }
  }

  // Drains the current fiber job: schedule runnable ranks until every
  // rank finished.  Entered and exited holding the lock.
  void drain_fibers_locked(util::MutexLock& lock) MWR_REQUIRES(mutex) {
    for (;;) {
      while (runnable.empty() && unfinished != 0) cv.wait(mutex);
      if (unfinished == 0) return;
      const int rank = runnable.front();
      runnable.pop_front();
      RankSlot& slot = slots[static_cast<std::size_t>(rank)];
      slot.state = State::kRunning;
      ++running;
      lock.unlock();

      coop_set_current(&slot.token);
      slot.fiber->resume();
      coop_set_current(nullptr);
      engine_metrics().fiber_slices.add(1);

      lock.lock();
      --running;
      if (slot.fiber->finished()) {
        slot.state = State::kFinished;
        if (--unfinished == 0) {
          cv.notify_all();
          done_cv.notify_all();
        }
      } else if (slot.wake_pending) {
        // The wake raced the suspension; run the rank again so it
        // re-checks its predicate.
        slot.wake_pending = false;
        enqueue_locked(rank);
      } else {
        slot.state = State::kBlocked;
      }
      check_deadlock_locked();
    }
  }

  // Makes items [0, end) claimable (marks only grow); wakes participants
  // parked on the mark.  Called on the submitting thread only.
  void release(std::size_t end) MWR_EXCLUDES(mutex) {
    if (end <= for_released.load(std::memory_order_relaxed)) return;
    for_released.store(end, std::memory_order_seq_cst);
    if (release_awaited.load(std::memory_order_seq_cst) > end) return;
    util::MutexLock lock(mutex);
    release_awaited.store(kNoneAwaited, std::memory_order_relaxed);
    cv.notify_all();
  }

  // Blocks until the release mark reaches `end`: a bounded spin, then a
  // park on `cv`.  The submitter releases everything once its producer
  // returns, so the wait always ends.
  void await_release(std::size_t end) MWR_EXCLUDES(mutex) {
    const auto released = [&] {
      return for_released.load(std::memory_order_acquire) >= end;
    };
    if (spin_until(idle_spins, released)) return;
    util::MutexLock lock(mutex);
    for (;;) {
      if (release_awaited.load(std::memory_order_relaxed) > end)
        release_awaited.store(end, std::memory_order_seq_cst);
      if (for_released.load(std::memory_order_seq_cst) >= end) return;
      cv.wait(mutex);
    }
  }

  // Claims released pre-split chunks off the cursor until the index space
  // drains, waiting on the release mark when the next chunk is not out
  // yet.  Runs unlocked; an fn exception is recorded (first wins) and
  // fast-forwards the cursor so peers stop claiming chunks.
  void drain_parallel_for(const std::function<void(std::size_t)>& fn,
                          std::size_t count, std::size_t chunk)
      MWR_EXCLUDES(mutex) {
    for (;;) {
      std::size_t begin = for_cursor.load(std::memory_order_relaxed);
      std::size_t end = 0;
      for (;;) {
        if (begin >= count) return;
        end = std::min(begin + chunk, count);
        if (for_released.load(std::memory_order_acquire) < end) {
          await_release(end);
          begin = for_cursor.load(std::memory_order_relaxed);
          continue;
        }
        if (for_cursor.compare_exchange_weak(begin, end,
                                             std::memory_order_relaxed))
          break;
      }
      for (std::size_t i = begin; i < end; ++i) {
        try {
          fn(i);
        } catch (...) {
          util::MutexLock lock(mutex);
          if (!first_error) first_error = std::current_exception();
          for_cursor.store(count, std::memory_order_relaxed);
          return;
        }
      }
    }
  }

  // Opens a job the workers can join.  Entered holding the lock.
  void submit_locked(Mode job) MWR_REQUIRES(mutex) {
    ensure_threads_locked();
    mode = job;
    job_open = true;
    epoch.fetch_add(1, std::memory_order_release);
    cv.notify_all();
  }

  // Closes the submitted job to late joiners and waits until the workers
  // inside it have left; the pool is idle again on return.  The caller
  // has already seen the job's items done.
  void close_locked() MWR_REQUIRES(mutex) {
    job_open = false;
    while (joined != 0) done_cv.wait(mutex);
    mode = Mode::kIdle;
  }

  void worker_loop() MWR_EXCLUDES(mutex) {
    std::uint64_t seen = 0;
    for (;;) {
      // Between jobs: poll for the next submission before parking, so
      // back-to-back sweeps find the worker awake.
      (void)spin_until(idle_spins, [&] {
        return epoch.load(std::memory_order_acquire) != seen;
      });
      util::MutexLock lock(mutex);
      while (!shutdown && epoch.load(std::memory_order_relaxed) == seen)
        cv.wait(mutex);
      if (shutdown) return;
      seen = epoch.load(std::memory_order_relaxed);
      // Woke after the submitter closed the job (its items are done):
      // nothing to join.
      if (!job_open) continue;
      ++joined;
      if (mode == Mode::kFibers) {
        drain_fibers_locked(lock);
      } else {
        const std::function<void(std::size_t)>* fn = for_fn;
        const std::size_t count = for_count;
        const std::size_t chunk = for_chunk;
        lock.unlock();
        drain_parallel_for(*fn, count, chunk);
        lock.lock();
      }
      if (--joined == 0 && !job_open) done_cv.notify_all();
    }
  }
};

void SuperstepEngine::Release::operator()(std::size_t end) const {
  if (impl_ != nullptr) impl_->release(std::min(end, count_));
}

SuperstepEngine::SuperstepEngine(std::size_t ranks, Config config)
    : impl_(std::make_unique<Impl>()) {
  if (ranks == 0)
    throw std::invalid_argument("SuperstepEngine needs >= 1 rank");
  impl_->nranks = ranks;
  impl_->nworkers = resolve_workers(config.workers);
  impl_->idle_spins = impl_->nworkers < usable_cpus() ? kIdleSpins : 0;
}

SuperstepEngine::~SuperstepEngine() {
  Impl& impl = *impl_;
  {
    util::MutexLock lock(impl.mutex);
    impl.shutdown = true;
    impl.epoch.fetch_add(1, std::memory_order_release);  // ends the spins.
    impl.cv.notify_all();
  }
  for (auto& thread : impl.threads) thread.join();
}

std::size_t SuperstepEngine::ranks() const noexcept { return impl_->nranks; }

std::size_t SuperstepEngine::workers() const noexcept {
  return impl_->nworkers;
}

void SuperstepEngine::run(const std::function<void(int)>& body) {
  Impl& impl = *impl_;
  std::exception_ptr first_error;
  std::size_t aborted_ranks = 0;
  {
    util::MutexLock lock(impl.mutex);
    if (impl.mode != Impl::Mode::kIdle)
      throw std::logic_error("SuperstepEngine::run: engine already busy");
    // Re-arm per-run state; slots and rank stacks persist across runs.
    impl.slots.resize(impl.nranks);
    impl.rank_stacks.resize(impl.nranks);
    impl.runnable.clear();
    impl.aborting = false;
    impl.aborted_ranks = 0;
    impl.first_error = nullptr;
    for (std::size_t r = 0; r < impl.nranks; ++r) {
      Impl::RankSlot& slot = impl.slots[r];
      // Not value-initialized: zeroing would commit every page of every
      // stack up front, where a fiber touches only the few KiB it uses.
      if (!impl.rank_stacks[r])
        impl.rank_stacks[r] =
            std::make_unique_for_overwrite<char[]>(kFiberStackBytes);
      slot.token = CoopToken{this, static_cast<int>(r)};
      slot.state = Impl::State::kRunnable;
      slot.wake_pending = false;
      slot.fiber = std::make_unique<Fiber>(
          [&impl, &body, r] {
            try {
              body(static_cast<int>(r));
            } catch (const SuperstepAbort&) {
              // Engine-initiated unwind of a blocked rank; not a body
              // error.
            } catch (...) {
              util::MutexLock error_lock(impl.mutex);
              if (!impl.first_error)
                impl.first_error = std::current_exception();
            }
          },
          impl.rank_stacks[r].get(), kFiberStackBytes);
      impl.runnable.push_back(static_cast<int>(r));
    }
    impl.unfinished = impl.nranks;
    engine_metrics().runnable_ranks.record_max(
        static_cast<double>(impl.runnable.size()));

    impl.submit_locked(Impl::Mode::kFibers);
    while (impl.unfinished != 0) impl.done_cv.wait(impl.mutex);
    impl.close_locked();

    first_error = impl.first_error;
    aborted_ranks = impl.aborted_ranks;
    // Destroy the fibers now (stacks stay pooled): the fiber entries
    // capture `body`, which dies with this frame.
    for (auto& slot : impl.slots) slot.fiber.reset();
  }
  if (first_error) std::rethrow_exception(first_error);
  if (aborted_ranks != 0) {
    throw std::runtime_error(
        "superstep engine: deadlock — " + std::to_string(aborted_ranks) +
        " of " + std::to_string(impl.nranks) +
        " ranks blocked with no runnable peer (unwound)");
  }
}

void SuperstepEngine::parallel_for(std::size_t count,
                                   const std::function<void(std::size_t)>& fn,
                                   const Producer& producer) {
  Impl& impl = *impl_;
  const bool inline_sweep = count == 0 || impl.nworkers <= 1;
  // The producer's exception waits for the sweep: it must not cancel it.
  const auto run_producer = [&]() -> std::exception_ptr {
    if (!producer) return nullptr;
    try {
      producer(Release(inline_sweep ? nullptr : &impl, count));
    } catch (...) {
      return std::current_exception();
    }
    return nullptr;
  };
  if (inline_sweep) {
    // Inline: no wakeups, no cursor, fn exceptions propagate naturally.
    const std::exception_ptr producer_error = run_producer();
    for (std::size_t i = 0; i < count; ++i) fn(i);
    if (producer_error) std::rethrow_exception(producer_error);
    return;
  }
  std::size_t chunk = 1;
  std::exception_ptr first_error;
  {
    util::MutexLock lock(impl.mutex);
    if (impl.mode != Impl::Mode::kIdle)
      throw std::logic_error(
          "SuperstepEngine::parallel_for: engine already busy");
    // Split before fan-out: the chunk size depends only on the job shape,
    // never on runtime timing, so the decomposition is reproducible.  A
    // producer's items are claimed one at a time, as they come out.
    chunk = producer ? 1
                     : std::max<std::size_t>(1, count / (impl.nworkers * 8));
    impl.for_fn = &fn;
    impl.for_count = count;
    impl.for_chunk = chunk;
    impl.for_cursor.store(0, std::memory_order_relaxed);
    impl.for_released.store(producer ? 0 : count, std::memory_order_relaxed);
    impl.release_awaited.store(Impl::kNoneAwaited, std::memory_order_relaxed);
    impl.first_error = nullptr;
    impl.submit_locked(Impl::Mode::kParallelFor);
  }
  engine_metrics().sweeps.add(1);
  // The producer overlaps the workers' share; then everything left is
  // released and the caller participates instead of idling behind the
  // pool.
  const std::exception_ptr producer_error = run_producer();
  impl.release(count);
  impl.drain_parallel_for(fn, count, chunk);
  {
    // Every chunk is claimed; those still running belong to joined
    // workers, which close_locked waits out.
    util::MutexLock lock(impl.mutex);
    impl.close_locked();
    impl.for_fn = nullptr;
    first_error = impl.first_error;
  }
  if (first_error) std::rethrow_exception(first_error);
  if (producer_error) std::rethrow_exception(producer_error);
}

void SuperstepEngine::await_release(std::size_t end) {
  // An inline sweep ran its producer to the end before any fn call.
  if (impl_->nworkers > 1) impl_->await_release(end);
}

void SuperstepEngine::suspend_current() {
  Impl& impl = *impl_;
  Fiber* fiber = Fiber::current();
  {
    util::MutexLock lock(impl.mutex);
    if (impl.aborting) throw SuperstepAbort{};
  }
  fiber->yield();
  // Resumed (possibly on another worker).  Under abort the resume exists
  // only to unwind this stack.
  {
    util::MutexLock lock(impl.mutex);
    if (impl.aborting) throw SuperstepAbort{};
  }
}

void SuperstepEngine::wake(int rank) {
  Impl& impl = *impl_;
  util::MutexLock lock(impl.mutex);
  Impl::RankSlot& slot = impl.slots[static_cast<std::size_t>(rank)];
  switch (slot.state) {
    case Impl::State::kBlocked:
      impl.enqueue_locked(rank);
      break;
    case Impl::State::kRunning:
      slot.wake_pending = true;
      break;
    case Impl::State::kRunnable:
      // Already queued: it will re-check its predicate when it runs.
      break;
    case Impl::State::kFinished:
      // Stale wake for a rank that aborted or returned; ignore.
      break;
  }
}

void SuperstepEngine::note_superstep_boundary() noexcept {
  engine_metrics().supersteps.add(1);
}

void SuperstepEngine::note_external_wait(int delta) noexcept {
  Impl& impl = *impl_;
  util::MutexLock lock(impl.mutex);
  if (delta > 0) {
    impl.external_waiters += static_cast<std::size_t>(delta);
  } else {
    impl.external_waiters -= static_cast<std::size_t>(-delta);
  }
}

}  // namespace mwr::parallel
