#include "apr/repair_session.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "obs/registry.hpp"
#include "parallel/superstep.hpp"
#include "util/fnv.hpp"

namespace mwr::apr {

using util::fnv_fold;

RepairSession::RepairSession(const MwRepairConfig& config,
                             const TestOracle& oracle,
                             const MutationPool& pool)
    : repair_(config),
      oracle_(&oracle),
      pool_(&pool),
      rng_(repair_.config().seed),
      baseline_(oracle.baseline_fitness()),
      trajectory_hash_(util::kFnvOffset) {
  if (pool.empty())
    throw std::invalid_argument("RepairSession: empty mutation pool");

  const MwRepairConfig& cfg = repair_.config();
  core::MwuConfig mwu_config;
  mwu_config.num_options = cfg.arms;
  mwu_config.num_agents = cfg.agents;
  mwu_config.max_iterations = cfg.max_iterations;
  mwu_config.learning_rate = cfg.learning_rate;
  mwu_config.exploration = cfg.exploration;
  strategy_ = core::make_mwu(cfg.mwu, mwu_config);

  auto& metrics = obs::MetricsRegistry::global();
  cycle_counter_ = &metrics.counter("repair.online.cycles");
  probe_counter_ = &metrics.counter("repair.online.probes");
  cycle_seconds_ = &metrics.histogram("repair.online.cycle_seconds");
  phase_seconds_ = &metrics.histogram("phase.online.seconds");
  repaired_gauge_ = &metrics.gauge("repair.repaired");

  // Wave fast path: usable when the oracle carries an eager wave table
  // and every working-pool member is a wave-pool member (wave_index_of).
  // The map is monotone (both pools are key-sorted), so ascending working
  // indices translate to ascending primed indices and the canonical patch
  // order survives.
  if (oracle.wave_ready()) {
    wave_map_.reserve(pool.size());
    bool mapped = true;
    for (const Mutation& m : pool.mutations()) {
      const std::size_t idx = oracle.wave_index_of(m);
      if (idx == OracleCache::npos) {
        mapped = false;
        break;
      }
      wave_map_.push_back(static_cast<std::uint32_t>(idx));
    }
    wave_fast_path_ = mapped;
    wave_identity_ = mapped && wave_map_.size() == oracle.wave().pool.size();
    if (!mapped) wave_map_.clear();
  }
}

RepairSession::~RepairSession() { flush_telemetry(); }

void RepairSession::flush_telemetry() {
  if (pending_cycles_ != 0) cycle_counter_->add(pending_cycles_);
  if (pending_probes_ != 0) probe_counter_->add(pending_probes_);
  cycle_seconds_->observe(pending_cycle_seconds_);
  oracle_->book(pending_tally_);
  pending_cycles_ = 0;
  pending_probes_ = 0;
  pending_cycle_seconds_.clear();
}

void RepairSession::finish(bool repaired) {
  done_ = true;
  flush_telemetry();
  phase_seconds_->observe(online_seconds_);
  repaired_gauge_->set(repaired ? 1.0 : 0.0);
}

std::size_t RepairSession::draw_cycle() {
  if (done_) return 0;
  staged_arms_ = strategy_->sample(rng_);  // MWU_Sample; copy reuses capacity
  const std::size_t n = staged_arms_.size();
  // Sized up front: stage_probe(j) writes only slot j, while participants
  // read the slots below it.
  index_patches_.resize(n);
  acceptance_.assign(n, 0.0);
  evaluations_.assign(n, Evaluation{});
  if (wave_fast_path_) tallies_.assign(n, TestOracle::ProbeTally{});
  // The cycle's fold opens with its number, ahead of its draws.
  fold_hash_ = fnv_fold(trajectory_hash_, outcome_.iterations);
  folded_ = 0;
  outcome_.probes += n;
  probes_last_cycle_ = n;
  pending_probes_ += n;
  return n;
}

void RepairSession::stage_probe(std::size_t j) {
  const std::size_t count =
      std::min(repair_.count_for_arm(staged_arms_[j]), pool_->size());
  // Without-replacement draws, ascending in index space: pool order is
  // key order, so the indices name exactly the canonical patch
  // sample_from_pool would build, with the same RNG consumption.
  sample_from_pool_indexed(pool_->size(), count, rng_, index_patches_[j]);
  acceptance_[j] = rng_.uniform();
}

std::size_t RepairSession::begin_cycle() {
  const std::size_t n = draw_cycle();
  for (std::size_t j = 0; j < n; ++j) stage_probe(j);
  return n;
}

void RepairSession::fold_through(std::size_t end) {
  // Folds the staged draws into the trajectory fingerprint ahead of the
  // cycle's rewards, so the hash pins the stochastic sequence.  A local
  // hash and member pointer keep the loop in registers.
  const Mutation* const members = pool_->mutations().data();
  std::uint64_t h = fold_hash_;
  std::size_t j = folded_;
  for (; j < end; ++j) {
    h = fnv_fold(h, staged_arms_[j]);
    h = fnv_fold(h, std::bit_cast<std::uint64_t>(acceptance_[j]));
    for (const std::uint32_t w : index_patches_[j]) {
      h = fnv_fold(h, members[w].key());
    }
  }
  fold_hash_ = h;
  folded_ = j;
}

void RepairSession::evaluate_staged(std::size_t j) {
  const std::vector<std::uint32_t>& widx = index_patches_[j];
  if (!wave_fast_path_) {
    // No wave covers the pool (it is past OracleCache::kMaxWavePool, or
    // the oracle is unprimed): materialize the canonical patch for the
    // reference path.
    thread_local Patch patch;
    patch.clear();
    for (const std::uint32_t w : widx) patch.push_back(pool_->mutations()[w]);
    evaluations_[j] = oracle_->evaluate(patch);
    return;
  }
  if (wave_identity_) {
    evaluations_[j] = oracle_->evaluate_pooled(widx, tallies_[j]);
    return;
  }
  // Translate working-pool positions to primed positions (monotone map:
  // ascending stays ascending).
  thread_local std::vector<std::uint32_t> mapped;
  mapped.resize(widx.size());
  for (std::size_t i = 0; i < widx.size(); ++i) mapped[i] = wave_map_[widx[i]];
  evaluations_[j] = oracle_->evaluate_pooled(mapped, tallies_[j]);
}

bool RepairSession::finish_cycle(double elapsed_seconds) {
  fold_through(staged_arms_.size());  // no-op after run_cycle's sweep.
  trajectory_hash_ = fold_hash_;
  const MwRepairConfig& cfg = repair_.config();
  online_seconds_ += elapsed_seconds;
  pending_cycle_seconds_.push_back(elapsed_seconds);
  ++pending_cycles_;
  for (const TestOracle::ProbeTally& t : tallies_) {
    pending_tally_.runs += t.runs;
    pending_tally_.mask_hits += t.mask_hits;
    pending_tally_.pair_hits += t.pair_hits;
  }
  tallies_.clear();

  const std::size_t n = staged_arms_.size();
  rewards_.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const Evaluation& e = evaluations_[j];
    const std::size_t patch_size = index_patches_[j].size();
    if (e.is_repair()) {                                 // terminate early
      outcome_.repaired = true;
      // Ascending indices over the key-sorted pool: the canonical Patch.
      outcome_.patch.clear();
      for (const std::uint32_t w : index_patches_[j]) {
        outcome_.patch.push_back(pool_->mutations()[w]);
      }
      outcome_.iterations += 1;
      outcome_.preferred_count = patch_size;
      outcome_.arm_probabilities = strategy_->probabilities();
      trajectory_hash_ = fnv_fold(trajectory_hash_, 0x5245504152ull);  // tag
      trajectory_hash_ = fnv_fold(trajectory_hash_, j);
      finish(true);
      return true;
    }
    rewards_[j] = probe_reward(cfg.reward, e.fitness() >= baseline_,
                               acceptance_[j], patch_size, cfg.max_count);
  }
  for (const double r : rewards_) {
    trajectory_hash_ =
        fnv_fold(trajectory_hash_, std::bit_cast<std::uint64_t>(r));
  }
  strategy_->update(staged_arms_, rewards_, rng_);       // MWU_Update
  ++outcome_.iterations;

  if (outcome_.iterations >= cfg.max_iterations) {
    // Budget exhausted (Fig 6: return null).
    outcome_.preferred_count = repair_.count_for_arm(strategy_->best_option());
    outcome_.arm_probabilities = strategy_->probabilities();
    finish(false);
    return true;
  }
  return false;
}

double RepairSession::run_cycle(parallel::SuperstepEngine* workers) {
  // Inline every probe is staged up front; with workers the producer
  // below stages them into the sweep.
  const std::size_t n = workers == nullptr ? begin_cycle() : draw_cycle();
  // Cancelled, a timer is a plain stopwatch (the only clock apr may read).
  obs::ScopedTimer wave_timer(*cycle_seconds_);
  wave_timer.cancel();
  if (workers == nullptr) {
    for (std::size_t j = 0; j < n; ++j) evaluate_staged(j);
    return wave_timer.elapsed_seconds();
  }
  // Item 0 is the fold, which trails the release mark in probe order;
  // item j + 1 evaluates probe j.  The fold is released first, so a
  // worker takes it while the calling thread stages.
  workers->parallel_for(
      n + 1,
      [&](std::size_t i) {
        if (i != 0) {
          evaluate_staged(i - 1);
          return;
        }
        for (std::size_t j = 0; j < n; ++j) {
          workers->await_release(j + 2);  // probe j is staged.
          fold_through(j + 1);
        }
      },
      [&](const parallel::SuperstepEngine::Release& release) {
        release(1);
        for (std::size_t j = 0; j < n; ++j) {
          stage_probe(j);
          release(j + 2);
        }
      });
  return wave_timer.elapsed_seconds();
}

bool RepairSession::step(parallel::SuperstepEngine* workers) {
  if (done_) return true;
  // Cancelled: finish_cycle() records the cycle time it is handed.
  obs::ScopedTimer cycle_timer(*cycle_seconds_);
  cycle_timer.cancel();
  (void)run_cycle(workers);
  const bool finished = finish_cycle(cycle_timer.elapsed_seconds());
  flush_telemetry();
  return finished;
}

RepairSession::State RepairSession::save() const {
  if (done_)
    throw std::logic_error("RepairSession::save: session already finished");
  State state;
  state.strategy = strategy_->export_state();
  state.rng_seed = rng_.seed();
  state.rng_state = rng_.state();
  state.iterations = outcome_.iterations;
  state.probes = outcome_.probes;
  state.trajectory_hash = trajectory_hash_;
  return state;
}

void RepairSession::restore(const State& state) {
  strategy_->import_state(state.strategy);
  rng_.restore(state.rng_seed, state.rng_state);
  outcome_.iterations = state.iterations;
  outcome_.probes = state.probes;
  trajectory_hash_ = state.trajectory_hash;
  done_ = false;
}

}  // namespace mwr::apr
