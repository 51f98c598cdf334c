// Tests for the bounded-thread superstep engine: rank multiplexing,
// schedule-independence of communicating programs, exception propagation
// out of a mid-superstep failure, deadlock detection with clean unwinding,
// the fiberless parallel_for sweep, and the engine's observability
// counters.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "parallel/barrier.hpp"
#include "parallel/comm.hpp"
#include "parallel/mailbox.hpp"
#include "parallel/superstep.hpp"

namespace mwr::parallel {
namespace {

TEST(SuperstepEngine, RunsEveryRankOnASingleWorker) {
  constexpr std::size_t kRanks = 37;
  SuperstepEngine::Config config;
  config.workers = 1;
  SuperstepEngine engine(kRanks, config);
  EXPECT_EQ(engine.ranks(), kRanks);
  EXPECT_EQ(engine.workers(), 1u);

  std::vector<int> visits(kRanks, 0);
  engine.run([&](int rank) { ++visits[static_cast<std::size_t>(rank)]; });
  for (const int v : visits) EXPECT_EQ(v, 1);
}

TEST(SuperstepEngine, ZeroRanksRejected) {
  EXPECT_THROW(SuperstepEngine(0, {}), std::invalid_argument);
}

TEST(SuperstepEngine, BarriersMultiplexManyRanksPerWorker) {
  // 64 ranks on 2 workers crossing 5 barriers: between consecutive
  // barriers every rank must have run exactly once more.
  constexpr std::size_t kRanks = 64;
  constexpr int kCycles = 5;
  SuperstepEngine::Config config;
  config.workers = 2;
  SuperstepEngine engine(kRanks, config);
  CountingBarrier barrier(kRanks);

  std::atomic<int> entered{0};
  std::vector<int> rounds(kRanks, 0);
  engine.run([&](int rank) {
    for (int c = 0; c < kCycles; ++c) {
      ++rounds[static_cast<std::size_t>(rank)];
      entered.fetch_add(1, std::memory_order_relaxed);
      barrier.arrive_and_wait([&] {
        // Completion runs with all ranks arrived: the round count must be
        // uniform at every superstep boundary.
        EXPECT_EQ(entered.load(std::memory_order_relaxed),
                  static_cast<int>(kRanks) * (c + 1));
      });
    }
  });
  EXPECT_EQ(barrier.generations(), static_cast<std::uint64_t>(kCycles));
  for (const int r : rounds) EXPECT_EQ(r, kCycles);
}

// A communicating SPMD program (message ring + reduction) must produce the
// same answer on every substrate and worker count — the engine adds no
// observable scheduling freedom.
std::vector<double> ring_program_totals(RunPolicy policy) {
  constexpr std::size_t kRanks = 16;
  constexpr int kRounds = 8;
  std::vector<double> totals(kRanks, 0.0);
  CommWorld world(kRanks, policy);
  world.run([&](Comm& comm) {
    const int n = comm.size();
    double held = comm.rank();
    for (int round = 0; round < kRounds; ++round) {
      comm.send((comm.rank() + 1) % n, /*tag=*/7, {held});
      held = comm.recv((comm.rank() + n - 1) % n, /*tag=*/7).payload.at(0);
      totals[static_cast<std::size_t>(comm.rank())] += held;
      comm.barrier();
    }
  });
  return totals;
}

TEST(SuperstepEngine, RingProgramIsIdenticalAcrossSubstrates) {
  const auto reference = ring_program_totals(RunPolicy::thread_per_rank());
  EXPECT_EQ(std::accumulate(reference.begin(), reference.end(), 0.0),
            8.0 * (15.0 * 16.0 / 2.0));
  for (const std::size_t workers : {1u, 2u, 4u}) {
    EXPECT_EQ(reference, ring_program_totals(RunPolicy::superstep(workers)))
        << "workers=" << workers;
  }
}

TEST(SuperstepEngine, BodyExceptionUnwindsBlockedPeers) {
  // Rank 0 throws mid-superstep while ranks 1 and 2 are parked at a
  // 3-party barrier that can never complete.  The engine must unwind the
  // blocked fibers (destructors run, code after the barrier does not) and
  // rethrow the original exception.
  constexpr std::size_t kRanks = 3;
  SuperstepEngine::Config config;
  config.workers = 2;
  SuperstepEngine engine(kRanks, config);
  CountingBarrier barrier(kRanks);

  std::vector<int> unwound(kRanks, 0);
  std::vector<int> passed_barrier(kRanks, 0);
  struct UnwindProbe {
    int* flag;
    ~UnwindProbe() { *flag = 1; }
  };
  EXPECT_THROW(
      engine.run([&](int rank) {
        const auto r = static_cast<std::size_t>(rank);
        UnwindProbe probe{&unwound[r]};
        if (rank == 0) throw std::logic_error("rank 0 failed");
        barrier.arrive_and_wait();
        passed_barrier[r] = 1;
      }),
      std::logic_error);
  for (std::size_t r = 0; r < kRanks; ++r) {
    EXPECT_EQ(unwound[r], 1) << "rank " << r << " stack did not unwind";
  }
  EXPECT_EQ(passed_barrier[1], 0);
  EXPECT_EQ(passed_barrier[2], 0);
}

TEST(SuperstepEngine, DeadlockIsDetectedAndUnwound) {
  // Rank 0 receives a message nobody sends; rank 1 finishes.  A
  // thread-per-rank world would hang — the engine detects that every
  // unfinished rank is blocked, unwinds rank 0, and reports the deadlock.
  SuperstepEngine::Config config;
  config.workers = 1;
  SuperstepEngine engine(2, config);
  Mailbox silent;
  int unwound = 0;
  struct UnwindProbe {
    int* flag;
    ~UnwindProbe() { *flag = 1; }
  };
  try {
    engine.run([&](int rank) {
      if (rank == 0) {
        UnwindProbe probe{&unwound};
        (void)silent.recv();
        FAIL() << "recv on a silent mailbox returned";
      }
    });
    FAIL() << "deadlock not reported";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
  }
  EXPECT_EQ(unwound, 1);
}

TEST(SuperstepEngine, IsReusableAcrossRuns) {
  // The persistent-engine contract (DESIGN.md §14): one engine serves
  // many runs — worker threads and fiber stacks are recycled, and a run
  // that throws leaves the engine ready for the next.
  constexpr std::size_t kRanks = 24;
  constexpr int kRuns = 6;
  SuperstepEngine::Config config;
  config.workers = 2;
  SuperstepEngine engine(kRanks, config);
  CountingBarrier barrier(kRanks);

  std::vector<int> visits(kRanks, 0);
  for (int run = 0; run < kRuns; ++run) {
    engine.run([&](int rank) {
      ++visits[static_cast<std::size_t>(rank)];
      barrier.arrive_and_wait();
    });
  }
  for (const int v : visits) EXPECT_EQ(v, kRuns);
  EXPECT_EQ(barrier.generations(), static_cast<std::uint64_t>(kRuns));

  // A failed run must not poison the engine.
  EXPECT_THROW(engine.run([&](int rank) {
                 if (rank == 3) throw std::runtime_error("boom");
               }),
               std::runtime_error);
  std::vector<int> after(kRanks, 0);
  engine.run([&](int rank) { ++after[static_cast<std::size_t>(rank)]; });
  for (const int v : after) EXPECT_EQ(v, 1);
}

TEST(SuperstepEngine, ParallelForCoversEveryIndexOnce) {
  for (const std::size_t workers : {1u, 2u, 3u, 4u, 8u}) {
    SuperstepEngine::Config config;
    config.workers = workers;
    SuperstepEngine engine(1, config);
    EXPECT_EQ(engine.workers(), workers);
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    // Repeated sweeps on one engine: the fiberless path must also be
    // reusable, including interleaved with fiber runs.
    for (int sweep = 0; sweep < 3; ++sweep) {
      engine.parallel_for(kCount, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
    }
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(std::memory_order_relaxed), 3)
          << "workers=" << workers << " i=" << i;
    }
    engine.parallel_for(0, [&](std::size_t) { FAIL() << "count == 0 ran"; });
    // Fewer indices than workers: the idle participants find no chunk.
    std::atomic<int> few{0};
    engine.parallel_for(
        3, [&](std::size_t) { few.fetch_add(1, std::memory_order_relaxed); });
    EXPECT_EQ(few.load(std::memory_order_relaxed), 3) << "workers=" << workers;
  }
}

class ParallelForSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelForSweep, SumOfIndicesIsCorrect) {
  SuperstepEngine engine(1, SuperstepEngine::Config{GetParam()});
  std::atomic<std::int64_t> sum{0};
  constexpr std::size_t kCount = 2000;
  engine.parallel_for(kCount, [&](std::size_t i) {
    sum.fetch_add(static_cast<std::int64_t>(i));
  });
  EXPECT_EQ(sum.load(), static_cast<std::int64_t>(kCount * (kCount - 1) / 2));
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelForSweep,
                         ::testing::Values(1, 2, 4, 8));

TEST(SuperstepEngine, ParallelForInterleavesWithFiberRuns) {
  SuperstepEngine::Config config;
  config.workers = 2;
  SuperstepEngine engine(4, config);
  std::atomic<int> total{0};
  engine.run([&](int) { total.fetch_add(1, std::memory_order_relaxed); });
  engine.parallel_for(
      64, [&](std::size_t) { total.fetch_add(1, std::memory_order_relaxed); });
  engine.run([&](int) { total.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(total.load(std::memory_order_relaxed), 4 + 64 + 4);
}

TEST(SuperstepEngine, ParallelForRethrowsFirstBodyError) {
  for (const std::size_t workers : {1u, 3u}) {
    SuperstepEngine::Config config;
    config.workers = workers;
    SuperstepEngine engine(1, config);
    EXPECT_THROW(engine.parallel_for(256,
                                     [&](std::size_t i) {
                                       if (i == 7)
                                         throw std::logic_error("bad index");
                                     }),
                 std::logic_error);
    // The engine stays usable after the failed sweep.
    std::atomic<int> ran{0};
    engine.parallel_for(
        16, [&](std::size_t) { ran.fetch_add(1, std::memory_order_relaxed); });
    EXPECT_EQ(ran.load(std::memory_order_relaxed), 16);
  }
}

TEST(SuperstepEngine, ParallelForWaitsForEveryParticipantBeforeRethrowing) {
  // fn lives in the caller's frame: a throwing index must not hand control
  // back while another participant is still inside fn.  The calling
  // thread throws on its first index, once a worker has entered fn; each
  // worker index stays in fn for a while.
  SuperstepEngine engine(1, SuperstepEngine::Config{2});
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> entered{0};
  std::atomic<int> left{0};
  const auto body = [&](std::size_t) {
    if (std::this_thread::get_id() == caller) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (entered.load() == 0 && std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
      throw std::runtime_error("fails");
    }
    entered.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    left.fetch_add(1);
  };
  EXPECT_THROW(engine.parallel_for(64, body), std::runtime_error);
  EXPECT_GE(entered.load(), 1);
  EXPECT_EQ(left.load(), entered.load());
}

TEST(SuperstepEngine, NestedParallelForThrowsInsteadOfDeadlocking) {
  // A sweep nested on its own engine finds the engine busy: it throws
  // std::logic_error out of the outer sweep instead of waiting on workers
  // that are all inside the outer fn.
  for (const std::size_t workers : {2u, 4u}) {
    SuperstepEngine engine(1, SuperstepEngine::Config{workers});
    std::atomic<int> inner{0};
    EXPECT_THROW(engine.parallel_for(8,
                                     [&](std::size_t) {
                                       engine.parallel_for(8, [&](std::size_t) {
                                         inner.fetch_add(1);
                                       });
                                     }),
                 std::logic_error)
        << "workers=" << workers;
    EXPECT_EQ(inner.load(), 0);
    // The engine stays usable.
    std::atomic<int> ran{0};
    engine.parallel_for(16, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 16);
  }
}

// --- streamed sweeps: parallel_for with a producer ---------------------

TEST(SuperstepEngine, NoStreamedItemRunsBeforeItsRelease) {
  // The producer writes item i's input, then releases it; fn reads the
  // input (a data race TSan would report if the release did not order
  // them) and checks the mark it saw covers i.
  for (std::size_t workers = 1; workers <= 4; ++workers) {
    SuperstepEngine engine(1, SuperstepEngine::Config{workers});
    constexpr std::size_t kCount = 200;
    for (int sweep = 0; sweep < 20; ++sweep) {
      std::vector<std::size_t> input(kCount, 0);
      std::vector<std::size_t> output(kCount, 0);
      std::atomic<std::size_t> released{0};
      std::atomic<int> early{0};
      engine.parallel_for(
          kCount,
          [&](std::size_t i) {
            if (i >= released.load(std::memory_order_acquire))
              early.fetch_add(1, std::memory_order_relaxed);
            output[i] = input[i];
          },
          [&](const SuperstepEngine::Release& release) {
            for (std::size_t i = 0; i < kCount; ++i) {
              input[i] = i + 1;
              released.store(i + 1, std::memory_order_release);
              release(i + 1);
            }
          });
      EXPECT_EQ(early.load(), 0) << "workers=" << workers;
      for (std::size_t i = 0; i < kCount; ++i)
        ASSERT_EQ(output[i], i + 1) << "workers=" << workers << " i=" << i;
    }
  }
}

TEST(SuperstepEngine, AStreamedItemCanTrailTheReleaseMark) {
  // Item 0 consumes every later item's input in order, waiting for each
  // release, while the other items run as they come out.
  for (std::size_t workers = 1; workers <= 4; ++workers) {
    SuperstepEngine engine(1, SuperstepEngine::Config{workers});
    constexpr std::size_t kCount = 100;
    std::vector<std::uint64_t> input(kCount, 0);
    std::uint64_t trail = 0;
    std::atomic<int> ran{0};
    engine.parallel_for(
        kCount + 1,
        [&](std::size_t i) {
          if (i != 0) {
            ran.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          for (std::size_t j = 0; j < kCount; ++j) {
            engine.await_release(j + 2);
            trail = trail * 31 + input[j];
          }
        },
        [&](const SuperstepEngine::Release& release) {
          release(1);
          for (std::size_t j = 0; j < kCount; ++j) {
            input[j] = j + 7;
            release(j + 2);
          }
        });
    std::uint64_t expected = 0;
    for (std::size_t j = 0; j < kCount; ++j) expected = expected * 31 + j + 7;
    EXPECT_EQ(trail, expected) << "workers=" << workers;
    EXPECT_EQ(ran.load(), static_cast<int>(kCount)) << "workers=" << workers;
  }
}

TEST(SuperstepEngine, AProducerThrowingMidStreamRethrowsAndFreesTheEngine) {
  // The items the producer never released still run (everything is
  // released when it throws), its error reaches the caller, no worker is
  // left waiting on a release, and the engine runs the next jobs.
  for (std::size_t workers = 1; workers <= 4; ++workers) {
    SuperstepEngine engine(1, SuperstepEngine::Config{workers});
    constexpr std::size_t kCount = 64;
    std::vector<std::atomic<int>> hits(kCount);
    for (auto& h : hits) h.store(0);
    EXPECT_THROW(engine.parallel_for(
                     kCount, [&](std::size_t i) { hits[i].fetch_add(1); },
                     [&](const SuperstepEngine::Release& release) {
                       release(kCount / 2);
                       throw std::runtime_error("producer");
                     }),
                 std::runtime_error)
        << "workers=" << workers;
    for (std::size_t i = 0; i < kCount; ++i)
      EXPECT_EQ(hits[i].load(), 1) << "workers=" << workers << " i=" << i;
    std::atomic<int> ran{0};
    engine.parallel_for(
        16, [&](std::size_t) { ran.fetch_add(1); },
        [](const SuperstepEngine::Release& release) { release(16); });
    engine.parallel_for(16, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 32) << "workers=" << workers;
  }
}

TEST(SuperstepEngine, AnFnThrowingWhileTheProducerReleasesRethrowsOnce) {
  // A worker's fn throws while the producer is still releasing: the
  // producer runs to its end, the caller gets the fn's error after the
  // drain, and the engine stays usable.
  for (std::size_t workers = 2; workers <= 4; ++workers) {
    SuperstepEngine engine(1, SuperstepEngine::Config{workers});
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> thrown{false};
    std::atomic<bool> producer_finished{false};
    const auto fn = [&](std::size_t i) {
      if (i == 2 && std::this_thread::get_id() != caller) {
        thrown.store(true);
        throw std::logic_error("fn");
      }
    };
    EXPECT_THROW(
        engine.parallel_for(
            128, fn,
            [&](const SuperstepEngine::Release& release) {
              release(8);
              // Give a worker the chance to throw before the rest is out.
              const auto deadline =
                  std::chrono::steady_clock::now() + std::chrono::seconds(10);
              while (!thrown.load() &&
                     std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
              release(128);
              producer_finished.store(true);
            }),
        std::logic_error)
        << "workers=" << workers;
    EXPECT_TRUE(thrown.load()) << "workers=" << workers;
    EXPECT_TRUE(producer_finished.load()) << "workers=" << workers;
    std::atomic<int> ran{0};
    engine.parallel_for(
        32, [&](std::size_t) { ran.fetch_add(1); },
        [](const SuperstepEngine::Release& release) { release(32); });
    EXPECT_EQ(ran.load(), 32) << "workers=" << workers;
  }
}

TEST(SuperstepEngine, BackToBackTinySweepsRunEveryItemOnceAndNeverAClosedOne) {
  // Ten thousand sweeps of a few items, half of them streamed: a worker
  // that wakes late must skip a sweep that already returned, not run an
  // item of it (each fn checks its sweep is still open).
  constexpr int kSweeps = 10000;
  for (std::size_t workers = 1; workers <= 4; ++workers) {
    SuperstepEngine engine(1, SuperstepEngine::Config{workers});
    std::atomic<int> wrong{0};
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      const std::size_t count = 1 + static_cast<std::size_t>(sweep % 4);
      std::array<std::atomic<int>, 4> hits{};
      std::atomic<bool> closed{false};
      const auto fn = [&](std::size_t i) {
        if (closed.load()) wrong.fetch_add(1);
        hits[i].fetch_add(1);
      };
      if (sweep % 2 == 0) {
        engine.parallel_for(count, fn);
      } else {
        engine.parallel_for(count, fn,
                            [&](const SuperstepEngine::Release& release) {
                              for (std::size_t i = 1; i <= count; ++i)
                                release(i);
                            });
      }
      closed.store(true);
      for (std::size_t i = 0; i < count; ++i) {
        if (hits[i].load() != 1) wrong.fetch_add(1);
      }
    }
    EXPECT_EQ(wrong.load(), 0) << "workers=" << workers;
  }
}

// The data-parallel contract parallel::ThreadPool carried before every
// sweep moved onto the engine, checked on the engine under the pool's
// test names.

TEST(ThreadPool, ReportsItsSize) {
  SuperstepEngine engine(1, SuperstepEngine::Config{3});
  EXPECT_EQ(engine.workers(), 3u);
}

TEST(ThreadPool, WorkersSurviveAFailedTask) {
  for (const std::size_t workers : {1u, 2u}) {
    SuperstepEngine engine(1, SuperstepEngine::Config{workers});
    EXPECT_THROW(engine.parallel_for(
                     1, [](std::size_t) { throw std::runtime_error("boom"); }),
                 std::runtime_error);
    std::atomic<int> good{0};
    engine.parallel_for(1, [&](std::size_t) { good.store(1); });
    EXPECT_EQ(good.load(), 1) << "workers=" << workers;
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  SuperstepEngine engine(1, SuperstepEngine::Config{4});
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  engine.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroCountIsNoop) {
  SuperstepEngine engine(1, SuperstepEngine::Config{2});
  engine.parallel_for(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, ParallelForFewerItemsThanWorkers) {
  SuperstepEngine engine(1, SuperstepEngine::Config{8});
  std::atomic<int> counter{0};
  engine.parallel_for(3, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  SuperstepEngine engine(1, SuperstepEngine::Config{2});
  EXPECT_THROW(engine.parallel_for(10,
                                   [](std::size_t i) {
                                     if (i == 5)
                                       throw std::runtime_error("bad index");
                                   }),
               std::runtime_error);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  // A one-worker engine runs a sweep nested on itself inline on the
  // calling thread: no wakeup, so nothing waits on a busy worker.
  SuperstepEngine engine(1, SuperstepEngine::Config{1});
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  engine.parallel_for(1, [&](std::size_t) {
    engine.parallel_for(hits.size(),
                        [&](std::size_t i) { hits[i].fetch_add(1); });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedParallelForStillPropagatesExceptions) {
  SuperstepEngine engine(1, SuperstepEngine::Config{1});
  EXPECT_THROW(engine.parallel_for(1,
                                   [&](std::size_t) {
                                     engine.parallel_for(4, [](std::size_t i) {
                                       if (i == 2)
                                         throw std::runtime_error(
                                             "nested failure");
                                     });
                                   }),
               std::runtime_error);
}

TEST(SuperstepEngine, CountsOnlySweepsThatFanOut) {
  obs::Counter& sweeps =
      obs::MetricsRegistry::global().counter("spmd.engine.sweeps");
  SuperstepEngine inline_engine(1, SuperstepEngine::Config{1});
  SuperstepEngine pooled(1, SuperstepEngine::Config{2});
  const std::uint64_t before = sweeps.value();
  inline_engine.parallel_for(8, [](std::size_t) {});
  pooled.parallel_for(0, [](std::size_t) {});
  EXPECT_EQ(sweeps.value(), before);
  pooled.parallel_for(8, [](std::size_t) {});
  pooled.parallel_for(8, [](std::size_t) {});
  EXPECT_EQ(sweeps.value(), before + 2);
}

TEST(SuperstepEngine, CountsSuperstepsAndRunnableRanks) {
  auto& registry = obs::MetricsRegistry::global();
  const std::uint64_t before =
      registry.counter("spmd.engine.supersteps").value();

  constexpr std::size_t kRanks = 8;
  constexpr int kCycles = 4;
  CommWorld world(kRanks, RunPolicy::superstep(1));
  world.run([&](Comm& comm) {
    for (int c = 0; c < kCycles; ++c) comm.barrier();
  });

  // Every completed barrier generation with a fiber party is one superstep
  // boundary.
  EXPECT_GE(registry.counter("spmd.engine.supersteps").value(),
            before + kCycles);
  EXPECT_GE(registry.gauge("spmd.engine.runnable_ranks").value(),
            static_cast<double>(kRanks));
}

}  // namespace
}  // namespace mwr::parallel
