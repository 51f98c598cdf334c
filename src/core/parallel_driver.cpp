#include "core/parallel_driver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/distributed_mwu.hpp"
#include "core/standard_mwu.hpp"
#include "obs/registry.hpp"
#include "util/fnv.hpp"

namespace mwr::core {

namespace {
// SPMD telemetry: total probes across ranks, the per-worker probe-count
// distribution (each rank contributes one observation per run — skew here
// means load imbalance), and time spent waiting in collectives (the
// synchronized-iteration stall the paper's §III-A analysis is about).
struct SpmdMetrics {
  obs::Counter& cycles;
  obs::Counter& probes;
  obs::Histogram& worker_probes;
  obs::Histogram& collective_wait_seconds;

  explicit SpmdMetrics(const char* driver)
      : cycles(obs::MetricsRegistry::global().counter(
            std::string("spmd.") + driver + ".cycles")),
        probes(obs::MetricsRegistry::global().counter(
            std::string("spmd.") + driver + ".probes")),
        worker_probes(obs::MetricsRegistry::global().histogram(
            std::string("spmd.") + driver + ".worker_probes",
            obs::Histogram::exponential_bounds(1.0, 2.0, 16))),
        collective_wait_seconds(obs::MetricsRegistry::global().histogram(
            std::string("spmd.") + driver + ".collective_wait_seconds")) {}
};

// User-level tags for the SPMD drivers (below the collective tag space).
constexpr int kTagObserveRequest = 100;
constexpr int kTagObserveReply = 101;

// 32-bit FNV-1a over (rank, choice); summed across ranks it is the
// order-independent trajectory fingerprint (ParallelMwuResult docs).
std::uint32_t rank_choice_hash(std::size_t rank, std::size_t choice) noexcept {
  const std::uint64_t h =
      util::fnv_fold(util::fnv_fold(util::kFnvOffset, rank), choice);
  return static_cast<std::uint32_t>(h & 0xffffffffull);
}

// The per-rank Distributed MWU program, shared verbatim by the in-process
// driver and the multi-process (transport) driver: the trajectory depends
// only on (seed, rank, config), never on which substrate carries the
// messages — that sharing is what makes cross-backend bit-identity hold
// by construction.  `report_rank` is the global rank that fills `out`
// (rank 0 in-process; each process's lowest rank under a transport, where
// every rank derives identical values anyway).
void distributed_rank_body(parallel::Comm& comm, const MwuConfig& config,
                           std::uint64_t seed, const CostOracle& oracle,
                           SpmdMetrics& metrics, std::size_t population,
                           int report_rank, ParallelMwuResult& out) {
  const auto rank = static_cast<std::size_t>(comm.rank());
  util::RngStream rng(seed + 0x51ed * static_cast<std::uint64_t>(rank));
  // Round-robin initial choice, as in the sequential implementation.
  std::size_t choice = rank % config.num_options;

  std::size_t iterations = 0;
  std::uint64_t rank_probes = 0;
  bool converged = false;
  for (std::size_t t = 0; t < config.max_iterations; ++t) {
    // --- Sample: pick a random option, or request a random neighbor's
    // current choice (the tracked communication of this algorithm).
    bool observing = false;
    std::size_t observed = 0;
    if (rng.bernoulli(config.exploration)) {
      observed = rng.uniform_index(config.num_options);
    } else {
      observing = true;
      const auto neighbor = static_cast<int>(rng.uniform_index(
          static_cast<std::size_t>(comm.size())));
      comm.send(neighbor, kTagObserveRequest, {});
    }
    {
      const obs::ScopedTimer wait(metrics.collective_wait_seconds);
      comm.barrier();  // all requests delivered
    }

    // --- Serve requests: reply with our current choice (bookkeeping).
    while (auto request =
               comm.try_recv(parallel::kAnySource, kTagObserveRequest)) {
      comm.send_untracked(request->source, kTagObserveReply,
                          {static_cast<double>(choice)});
    }
    comm.barrier();  // all replies delivered
    if (observing) {
      const auto reply = comm.try_recv(parallel::kAnySource, kTagObserveReply);
      if (!reply)
        throw std::logic_error("distributed SPMD: missing observe reply");
      observed = static_cast<std::size_t>(reply->payload.at(0));
    }

    // --- Update: evaluate the observed option once and adopt
    // stochastically (beta on success, alpha on failure).
    const bool success = oracle.sample(observed, rng) > 0.0;
    ++rank_probes;
    const double adopt_probability =
        success ? config.adopt_success : config.adopt_failure;
    if (rng.bernoulli(adopt_probability)) choice = observed;

    // --- Convergence snapshot (bookkeeping, untracked): every rank
    // contributes a one-hot choice vector to a binomial-tree allreduce,
    // so the popularity census reaches all ranks with O(log n) messages
    // per node instead of the O(population) recv loop rank 0 used to
    // absorb.  Each rank then applies the plurality test to the same
    // reduced vector, so no continue/stop broadcast is needed.
    std::vector<double> census(config.num_options, 0.0);
    census[choice] = 1.0;
    std::vector<double> popularity;
    {
      const obs::ScopedTimer wait(metrics.collective_wait_seconds);
      popularity = comm.allreduce_sum_tree_untracked(std::move(census));
    }
    const double max_count =
        *std::max_element(popularity.begin(), popularity.end());
    const bool stop = max_count >= config.plurality_threshold *
                                       static_cast<double>(population);
    if (comm.rank() == report_rank) {
      out.result.best_option = static_cast<std::size_t>(
          std::max_element(popularity.begin(), popularity.end()) -
          popularity.begin());
      out.result.probabilities.assign(config.num_options, 0.0);
      for (std::size_t i = 0; i < config.num_options; ++i) {
        out.result.probabilities[i] =
            popularity[i] / static_cast<double>(population);
      }
    }
    ++iterations;
    if (comm.rank() == 0) metrics.cycles.add(1);
    // Close the tracked (request) congestion cycle inside the barrier —
    // one synchronization per cycle, statistics unchanged.
    comm.barrier_close_cycle();
    if (stop) {
      converged = true;
      break;
    }
  }
  metrics.probes.add(rank_probes);
  metrics.worker_probes.observe(static_cast<double>(rank_probes));

  // Trajectory fingerprint: one more untracked tree reduction after the
  // last cycle closed — it adds no tracked messages, no RNG draws, and no
  // congestion, so the trajectory itself is untouched.
  const std::vector<double> hash_sum = comm.allreduce_sum_tree_untracked(
      {static_cast<double>(rank_choice_hash(rank, choice))});
  if (comm.rank() == report_rank) {
    out.result.converged = converged;
    out.result.iterations = iterations;
    out.trajectory_hash = hash_sum[0];
  }
}
}  // namespace

ParallelMwuResult run_standard_spmd(const CostOracle& oracle,
                                    const MwuConfig& config,
                                    std::uint64_t seed,
                                    parallel::RunPolicy policy) {
  const std::size_t n = config.num_agents;
  if (n == 0) throw std::invalid_argument("run_standard_spmd: no agents");
  parallel::CommWorld world(n, policy);

  // Each rank advances an identical replica of the weight state: sampling
  // uses the rank's private stream, updates use the allreduced counts, so
  // the replicas never diverge.
  MwuConfig rank_config = config;
  rank_config.num_agents = 1;

  ParallelMwuResult out;
  out.result.cpus_per_cycle = n;
  SpmdMetrics metrics("standard");

  world.run([&](parallel::Comm& comm) {
    util::RngStream rng(seed + 0x9e37 * static_cast<std::uint64_t>(comm.rank()));
    StandardMwu replica(rank_config);
    std::size_t iterations = 0;
    std::uint64_t rank_probes = 0;
    bool converged = false;
    for (std::size_t t = 0; t < config.max_iterations; ++t) {
      const auto& probe = replica.sample(rng);
      std::vector<double> counts(config.num_options, 0.0);
      counts[probe[0]] += oracle.sample(probe[0], rng);
      ++rank_probes;
      std::vector<double> total_counts;
      {
        const obs::ScopedTimer wait(metrics.collective_wait_seconds);
        total_counts = comm.allreduce_sum(std::move(counts));
      }
      replica.apply_reward_counts(total_counts);
      ++iterations;
      if (comm.rank() == 0) metrics.cycles.add(1);
      // The barrier's completion closes the congestion cycle — one
      // synchronization per cycle instead of the barrier/close/barrier
      // bracket, with identical statistics.
      comm.barrier_close_cycle();
      if (replica.converged()) {
        converged = true;
        break;
      }
    }
    metrics.probes.add(rank_probes);
    metrics.worker_probes.observe(static_cast<double>(rank_probes));
    if (comm.rank() == 0) {
      out.result.converged = converged;
      out.result.iterations = iterations;
      out.result.best_option = replica.best_option();
      out.result.probabilities = replica.probabilities();
    }
  });

  // Every rank probes once per cycle, and all ranks run the same cycles.
  out.result.evaluations = out.result.cpu_iterations();
  out.max_congestion_per_cycle = world.congestion().max_per_cycle();
  out.total_messages = world.congestion().total_messages();
  return out;
}

ParallelMwuResult run_distributed_spmd(const CostOracle& oracle,
                                       const MwuConfig& config,
                                       std::uint64_t seed,
                                       std::size_t population_override,
                                       parallel::RunPolicy policy) {
  const std::size_t population = population_override
                                     ? population_override
                                     : distributed_population(config);
  if (population == 0)
    throw std::invalid_argument("run_distributed_spmd: empty population");
  parallel::CommWorld world(population, policy);

  ParallelMwuResult out;
  out.result.cpus_per_cycle = population;
  SpmdMetrics metrics("distributed");

  world.run([&](parallel::Comm& comm) {
    distributed_rank_body(comm, config, seed, oracle, metrics, population,
                          /*report_rank=*/0, out);
  });

  // Every rank probes once per cycle, and all ranks run the same cycles.
  out.result.evaluations = out.result.cpu_iterations();
  out.max_congestion_per_cycle = world.congestion().max_per_cycle();
  out.total_messages = world.congestion().total_messages();
  return out;
}

ParallelMwuResult run_distributed_spmd_multiprocess(
    const CostOracle& oracle, const MwuConfig& config, std::uint64_t seed,
    std::size_t population_override, const MultiprocessOptions& options) {
  namespace tp = parallel::transport;
  const std::size_t population = population_override
                                     ? population_override
                                     : distributed_population(config);
  if (population == 0)
    throw std::invalid_argument(
        "run_distributed_spmd_multiprocess: empty population");
  const std::size_t num_options = config.num_options;

  // Report layout (doubles), returned by each worker's report rank:
  //   [0] total tracked messages
  //   [1..5] congestion count/mean/m2/min/max (identical in every process:
  //          all of them record the same global per-cycle maxima)
  //   [6] iterations  [7] converged  [8] best option  [9] trajectory hash
  //   [10..10+options) final popularity fractions
  constexpr std::size_t kMsgs = 0, kCcount = 1, kCmean = 2, kCm2 = 3,
                        kCmin = 4, kCmax = 5, kIters = 6, kConv = 7, kBest = 8,
                        kHash = 9, kProbs = 10;

  tp::ProcessWorldConfig pw;
  pw.global_ranks = population;
  pw.processes = options.processes;
  pw.policy = options.policy;
  pw.timeout_seconds = options.timeout_seconds;

  const auto outcome = tp::run_process_world(
      pw,
      [&config, seed, &oracle, population, num_options](
          parallel::CommWorld& world, const parallel::WorldLayout& layout) {
        ParallelMwuResult local;
        SpmdMetrics metrics("distributed");
        const int report_rank = static_cast<int>(layout.local_begin());
        world.run([&](parallel::Comm& comm) {
          distributed_rank_body(comm, config, seed, oracle, metrics,
                                population, report_rank, local);
        });
        const auto& congestion = world.congestion().max_per_cycle();
        std::vector<double> packed(kProbs + num_options, 0.0);
        packed[kMsgs] =
            static_cast<double>(world.congestion().total_messages());
        packed[kCcount] = static_cast<double>(congestion.count());
        packed[kCmean] = congestion.mean();
        packed[kCm2] = congestion.variance() *
                       static_cast<double>(congestion.count() > 1
                                               ? congestion.count() - 1
                                               : 0);
        packed[kCmin] = congestion.min();
        packed[kCmax] = congestion.max();
        packed[kIters] = static_cast<double>(local.result.iterations);
        packed[kConv] = local.result.converged ? 1.0 : 0.0;
        packed[kBest] = static_cast<double>(local.result.best_option);
        packed[kHash] = local.trajectory_hash;
        for (std::size_t i = 0; i < num_options; ++i) {
          packed[kProbs + i] = i < local.result.probabilities.size()
                                   ? local.result.probabilities[i]
                                   : 0.0;
        }
        return packed;
      });
  if (!outcome.ok)
    throw std::runtime_error("run_distributed_spmd_multiprocess: " +
                             outcome.error);

  ParallelMwuResult out;
  out.result.cpus_per_cycle = population;
  for (const auto& packed : outcome.values) {
    if (packed.size() < kProbs + num_options)
      throw std::runtime_error(
          "run_distributed_spmd_multiprocess: short worker result");
    out.total_messages += static_cast<std::uint64_t>(packed[kMsgs]);
  }
  // Congestion statistics and algorithm outcome are world-global and
  // identical in every worker; take process 0's copy.
  const auto& p0 = outcome.values.front();
  out.max_congestion_per_cycle = util::RunningStats::from_moments(
      static_cast<std::size_t>(p0[kCcount]), p0[kCmean], p0[kCm2], p0[kCmin],
      p0[kCmax]);
  out.result.iterations = static_cast<std::size_t>(p0[kIters]);
  out.result.converged = p0[kConv] != 0.0;
  out.result.best_option = static_cast<std::size_t>(p0[kBest]);
  out.trajectory_hash = p0[kHash];
  out.result.probabilities.assign(p0.begin() + kProbs,
                                  p0.begin() + kProbs + num_options);
  out.result.evaluations = out.result.cpu_iterations();
  return out;
}

}  // namespace mwr::core
