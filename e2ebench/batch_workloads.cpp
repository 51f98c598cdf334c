// campaign_single and table2_sweep: the researcher's repair_tool path and
// the Table II reproduction, both one call after another from one thread.
#include <array>
#include <optional>

#include "apr/campaign.hpp"
#include "apr/campaign_session.hpp"
#include "core/mwu.hpp"
#include "costmodel/evaluation.hpp"
#include "datasets/scenario.hpp"
#include "datasets/suite.hpp"
#include "fleet_driver.hpp"
#include "obs/registry.hpp"
#include "parallel/thread_pool.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

namespace apr = mwr::apr;
namespace core = mwr::core;
namespace costmodel = mwr::costmodel;
namespace datasets = mwr::datasets;

// --- campaign_single ------------------------------------------------------

/// The ten C and Java scenarios of the paper, cycled in order.
std::vector<datasets::ScenarioSpec> paper_scenarios() {
  std::vector<datasets::ScenarioSpec> specs = datasets::c_scenarios();
  for (datasets::ScenarioSpec& spec : datasets::java_scenarios())
    specs.push_back(std::move(spec));
  return specs;
}

/// repair_tool --campaign 3 --pool 1500 --agents 64 --iterations 200 with
/// every thread: the researcher's single-campaign configuration.  The pool
/// seed is repair_tool's per-scenario default, fixed across run seeds (the
/// pool decides how hard the scenario's repairs are); the run seed varies
/// the online search of every campaign.
apr::CampaignConfig single_config(const datasets::ScenarioSpec& spec,
                                  std::uint64_t seed, std::size_t index,
                                  bool smoke) {
  const std::size_t threads = bench_threads();
  apr::CampaignConfig config;
  config.bugs = 3;
  config.pool.target_size = smoke ? 300 : 1500;
  config.pool.max_attempts = 8 * config.pool.target_size;
  config.pool.threads = threads;
  config.pool.seed = 20210525 ^ spec.seed;
  config.repair.agents = 64;
  config.repair.max_iterations = smoke ? 40 : 200;
  config.repair.eval_threads = threads;
  config.repair.seed = mix64(mix64(seed) + index);
  return config;
}

/// The first campaigns of a run, one per scenario, make the golden digest.
constexpr std::size_t kSingleGolden = 10;
/// Campaigns recomputed through the staged (server) stepping path.
constexpr std::size_t kSingleStagedChecks = 3;
/// libtiff: a mid-cost scenario for the warm-up campaign.
constexpr std::size_t kWarmupScenario = 3;

/// The campaign stepped through stage_unit / evaluate_staged /
/// complete_unit, the path the campaign server uses, with no worker pool.
apr::CampaignOutcome run_staged(const datasets::ScenarioSpec& spec,
                                const apr::CampaignConfig& config) {
  apr::CampaignSession session(spec, config);
  while (!session.done()) {
    std::size_t probes = 0;
    if (session.stage_unit(probes) == 0) break;
    if (!session.unit_staged()) continue;
    for (std::size_t j = 0; j < probes; ++j) session.evaluate_staged(j);
    session.complete_unit();
  }
  return session.outcome();
}

struct SingleRun {
  std::size_t campaigns = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<double> latency_ms;
  std::vector<std::string> first_documents;
  Digest all;
  Digest golden;
  std::uint64_t wrong_shape = 0;
};

/// Sequential run_campaign calls until the deadline.
SingleRun run_campaigns(const Options& options,
                        const std::vector<datasets::ScenarioSpec>& specs,
                        std::int64_t deadline_ns) {
  SingleRun run;
  run.start_ns = now_ns();
  for (std::size_t i = 0; i == 0 || now_ns() < deadline_ns; ++i) {
    const datasets::ScenarioSpec& spec = specs[i % specs.size()];
    const std::int64_t t = now_ns();
    const apr::CampaignOutcome outcome = apr::run_campaign(
        spec, single_config(spec, options.seed, i, options.smoke));
    run.end_ns = now_ns();
    run.latency_ms.push_back(seconds_between(t, run.end_ns) * 1e3);
    const std::string document = render_outcome(outcome);
    run.all.add(document);
    if (i < kSingleGolden) run.golden.add(document);
    if (i < kSingleStagedChecks) run.first_documents.push_back(document);
    if (outcome.bugs.size() != 3) ++run.wrong_shape;
    run.campaigns = i + 1;
  }
  return run;
}

void untraced_single(const Options& options, Report& report) {
  std::vector<double> setups;
  std::vector<datasets::ScenarioSpec> specs;
  for (int k = 0; k < kSetupRepeats; ++k) {
    // Set-up: the scenario table plus one warm-up campaign, the same
    // fixed work in every run.
    const std::int64_t t = now_ns();
    specs = paper_scenarios();
    const datasets::ScenarioSpec& warm = specs[kWarmupScenario];
    (void)apr::run_campaign(warm, single_config(warm, 0, 0, options.smoke));
    setups.push_back(seconds_between(t, now_ns()));
  }

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  const SingleRun run = run_campaigns(options, specs, deadline);
  // Throughput is taken per cycle through the ten scenarios (the mix the
  // workload repeats) and the median cycle is reported, so a short stall
  // elsewhere on the machine does not move it.
  std::vector<double> cycle_rates;
  for (std::size_t c = 0; (c + 1) * specs.size() <= run.campaigns; ++c) {
    double seconds = 0.0;
    for (std::size_t i = c * specs.size(); i < (c + 1) * specs.size(); ++i)
      seconds += run.latency_ms[i] * 1e-3;
    cycle_rates.push_back(static_cast<double>(specs.size()) / seconds);
  }
  report.metric("throughput_per_s",
                cycle_rates.empty()
                    ? static_cast<double>(run.campaigns) /
                          seconds_between(run.start_ns, run.end_ns)
                    : median(cycle_rates));
  report_latencies(report, run.latency_ms);
  report.metric("setup_s", median(setups));
  report.metric("peak_rss_mb", self_peak_rss_mb());

  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < run.first_documents.size(); ++i) {
    const datasets::ScenarioSpec& spec = specs[i % specs.size()];
    const apr::CampaignOutcome staged =
        run_staged(spec, single_config(spec, options.seed, i, options.smoke));
    if (render_outcome(staged) != run.first_documents[i]) ++mismatches;
  }
  report.operations(run.campaigns, run.wrong_shape + mismatches);
  report.check("outcome_shape", run.wrong_shape == 0);
  report.check("staged_path_matches", mismatches == 0,
               std::to_string(mismatches) + " of " +
                   std::to_string(run.first_documents.size()) + " differ");
  report.digest("all", run.all.value());
  if (run.campaigns >= kSingleGolden)
    report.digest("golden", run.golden.value());
}

void traced_single(const Options& options, Report& report) {
  const std::vector<datasets::ScenarioSpec> specs = paper_scenarios();
  const datasets::ScenarioSpec& warm = specs[kWarmupScenario];
  (void)apr::run_campaign(warm, single_config(warm, 0, 0, options.smoke));

  // Each campaign runs twice in a row: untraced through run_campaign, as
  // the researcher calls it, then replayed one step(1) unit at a time
  // under the tracer.  The first unit of a campaign is precompute; a unit
  // that issued probes is an online cycle; any other unit starts a bug.
  Tracer tracer;
  Layer precompute;  // session + worker pool set-up and teardown included.
  Layer bug_setup;
  Layer online;
  std::uint64_t probes = 0;
  auto& registry = mwr::obs::MetricsRegistry::global();
  mwr::obs::Counter& mask_hits = registry.counter("oracle.mask_cache_hits");
  mwr::obs::Counter& mask_misses = registry.counter("oracle.mask_cache_misses");
  mwr::obs::Counter& pair_hits = registry.counter("oracle.pair_cache_hits");
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t pairs = 0;
  std::int64_t reference_ns = 0;
  std::int64_t replay_ns = 0;
  std::size_t campaigns = 0;
  std::size_t mismatches = 0;
  // Pairs start for 60% of the budget: each pair runs its campaign twice.
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 0.6e9);
  for (std::size_t i = 0; i == 0 || now_ns() < deadline; ++i) {
    const datasets::ScenarioSpec& spec = specs[i % specs.size()];
    const apr::CampaignConfig config =
        single_config(spec, options.seed, i, options.smoke);
    std::int64_t t = now_ns();
    const apr::CampaignOutcome reference = apr::run_campaign(spec, config);
    reference_ns += now_ns() - t;

    const std::uint64_t hits0 = mask_hits.value();
    const std::uint64_t misses0 = mask_misses.value();
    const std::uint64_t pairs0 = pair_hits.value();
    const SpanScope campaign(&tracer, "campaign", Tracer::kNone, i);
    const std::int64_t start = now_ns();
    t = start;
    std::optional<apr::CampaignSession> session;
    std::optional<mwr::parallel::ThreadPool> workers;
    session.emplace(spec, config);
    if (config.repair.eval_threads > 1)
      workers.emplace(config.repair.eval_threads);
    for (bool first = true; !session->done(); first = false) {
      session->step(1, workers ? &*workers : nullptr);
      const std::int64_t end = now_ns();
      const char* name = "apr.precompute";
      if (first) {
        precompute.add(end - t);
      } else if (session->probes_last_step() > 0) {
        name = "apr.online_cycle";
        online.add(end - t);
        probes += session->probes_last_step();
      } else {
        name = "apr.bug_setup";
        bug_setup.add(end - t);
      }
      tracer.record(name, campaign.index(), i, t, end);
      t = now_ns();
    }
    const apr::CampaignOutcome replayed = session->outcome();
    t = now_ns();
    workers.reset();
    session.reset();
    const std::int64_t end = now_ns();
    precompute.add(end - t, 0);
    replay_ns += end - start;
    hits += mask_hits.value() - hits0;
    misses += mask_misses.value() - misses0;
    pairs += pair_hits.value() - pairs0;
    if (render_outcome(replayed) != render_outcome(reference)) ++mismatches;
    campaigns = i + 1;
  }
  const double wall = static_cast<double>(replay_ns) * 1e-9;

  report.check("replay_reproduces_run_campaign", mismatches == 0,
               std::to_string(mismatches) + " of " +
                   std::to_string(campaigns) + " differ");
  report.operations(2 * campaigns, mismatches);
  report.metric("trace.overhead", static_cast<double>(replay_ns) /
                                      static_cast<double>(reference_ns) -
                                      1.0);
  report.metric("apr.precompute.ms_per_campaign",
                ratio(precompute.seconds() * 1e3,
                      static_cast<double>(precompute.units)));
  report.metric("apr.precompute.share", precompute.seconds() / wall);
  report.metric("apr.bug_setup.ms_per_bug", bug_setup.us_per_unit() * 1e-3);
  report.metric("apr.bug_setup.share", bug_setup.seconds() / wall);
  report.metric("apr.online_cycle.us_per_cycle", online.us_per_unit());
  report.metric("apr.online_cycle.us_per_probe",
                ratio(online.seconds() * 1e6, static_cast<double>(probes)));
  report.metric("apr.online_cycle.share", online.seconds() / wall);
  report.metric("apr.oracle.mask_hit_ratio",
                ratio(static_cast<double>(hits),
                      static_cast<double>(hits + misses)));
  report.metric("apr.oracle.pair_hits_per_probe",
                ratio(static_cast<double>(pairs), static_cast<double>(probes)));
  const double sum =
      (precompute.seconds() + bug_setup.seconds() + online.seconds()) / wall;
  check_layer_sum(report, "layer_sum", sum);
  report.metric("trace.layer_sum_ratio", sum);
  if (!options.trace_out.empty()) tracer.write_chrome(options.trace_out);
}

// --- table2_sweep ---------------------------------------------------------

constexpr core::MwuKind kColumnOrder[] = {
    core::MwuKind::kStandard, core::MwuKind::kDistributed,
    core::MwuKind::kSlate};
constexpr const char* kKindNames[] = {"standard", "distributed", "slate"};

/// One sweep: one replication of every algorithm on every dataset up to
/// k = 256, fanned out over every thread.  Each sweep draws fresh datasets
/// and replication seeds from the run seed; one replication per sweep keeps
/// a sweep short enough for a 20 s run to hold over 200 of them.
costmodel::EvalConfig sweep_config(std::uint64_t seed, std::size_t sweep,
                                   bool smoke) {
  costmodel::EvalConfig config;
  config.seeds = 1;
  config.max_size = smoke ? 64 : 256;
  config.master_seed = mix64(mix64(seed) + sweep);
  config.threads = bench_threads();
  return config;
}

/// Identity of a sweep's output: every cell's iteration and accuracy
/// means (bit-exact) and converged count, in table order.
std::uint64_t cells_digest(const std::vector<costmodel::EvalCell>& cells) {
  Digest d;
  for (const costmodel::EvalCell& cell : cells) {
    d.add(cell.dataset);
    d.add(static_cast<std::uint64_t>(cell.kind));
    d.add_double(cell.iterations.mean());
    d.add_double(cell.accuracy.mean());
    d.add(static_cast<std::uint64_t>(cell.converged_runs));
  }
  return d.value();
}

std::size_t replications(const std::vector<costmodel::EvalCell>& cells,
                         std::size_t seeds) {
  std::size_t n = 0;
  for (const costmodel::EvalCell& cell : cells)
    n += cell.intractable ? 0 : seeds;
  return n;
}

struct SweepRun {
  std::size_t sweeps = 0;
  std::vector<double> latency_ms;
  std::vector<double> rates;  ///< replications per second, per sweep.
  std::vector<std::uint64_t> digests;
};

SweepRun run_sweeps(const Options& options,
                    std::int64_t deadline_ns) {
  SweepRun run;
  for (std::size_t k = 0; k == 0 || now_ns() < deadline_ns; ++k) {
    const costmodel::EvalConfig config =
        sweep_config(options.seed, k, options.smoke);
    const std::int64_t t = now_ns();
    const std::vector<costmodel::EvalCell> cells =
        costmodel::run_evaluation(config);
    const double seconds = seconds_between(t, now_ns());
    run.latency_ms.push_back(seconds * 1e3);
    run.rates.push_back(
        static_cast<double>(replications(cells, config.seeds)) / seconds);
    run.digests.push_back(cells_digest(cells));
    run.sweeps = k + 1;
  }
  return run;
}

void untraced_table2(const Options& options, Report& report) {
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    // Set-up: a warm-up sweep with one replication per cell, the same
    // fixed work in every run.
    costmodel::EvalConfig warm = sweep_config(0, 0, options.smoke);
    warm.seeds = 1;
    const std::int64_t t = now_ns();
    (void)costmodel::run_evaluation(warm);
    setups.push_back(seconds_between(t, now_ns()));
  }

  const SweepRun run = run_sweeps(
      options,
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9));
  // The median sweep's rate: every sweep does the same number of
  // replications, and a short stall elsewhere on the machine moves only a
  // few sweeps.
  report.metric("throughput_per_s", median(run.rates));
  report_latencies(report, run.latency_ms);
  report.metric("setup_s", median(setups));
  report.metric("peak_rss_mb", self_peak_rss_mb());

  // run_evaluation promises identical results for any thread count.
  costmodel::EvalConfig serial = sweep_config(options.seed, 0, options.smoke);
  serial.threads = 1;
  const bool same = cells_digest(costmodel::run_evaluation(serial)) ==
                    run.digests.front();
  report.operations(run.sweeps, same ? 0 : 1);
  report.check("thread_count_invariance", same);
  Digest all;
  for (const std::uint64_t d : run.digests) all.add(d);
  report.digest("all", all.value());
  report.digest("golden", run.digests.front());
}

/// Replay time per layer: suite construction, each MWU variant's
/// replications, and folding the outcomes into the table.
struct SweepLayers {
  Layer suite;
  std::array<Layer, 3> kind;
  std::array<std::uint64_t, 3> cycles{};
  Layer fold;
};

/// Replays one sweep replication by replication through core::run_mwu,
/// seeded exactly as costmodel::run_evaluation seeds them, and folds the
/// outcomes in table order.  Returns the sweep's digest.
std::uint64_t replay_sweep(const costmodel::EvalConfig& config,
                           SweepLayers& layers, Tracer& tracer,
                           std::uint32_t parent) {
  std::int64_t t = now_ns();
  const std::vector<datasets::Dataset> suite =
      datasets::standard_suite(config.master_seed, config.max_size);
  layers.suite.add(now_ns() - t);

  struct Outcome {
    double iterations = 0.0;
    double accuracy = 0.0;
    bool converged = false;
    bool ran = false;
  };
  std::vector<Outcome> outcomes(suite.size() * 3 * config.seeds);
  std::size_t unit = 0;
  for (const datasets::Dataset& dataset : suite) {
    core::MwuConfig mwu = config.mwu;
    mwu.num_options = dataset.options.size();
    mwu.max_iterations = config.max_iterations;
    for (std::size_t k = 0; k < 3; ++k) {
      const core::MwuKind kind = kColumnOrder[k];
      const bool intractable = kind == core::MwuKind::kDistributed &&
                               core::distributed_population(mwu) >
                                   mwu.max_population;
      for (std::size_t s = 0; s < config.seeds; ++s, ++unit) {
        if (intractable) continue;
        const SpanScope span(&tracer, "replication", parent, unit);
        t = now_ns();
        const core::BernoulliOracle oracle(dataset.options);
        mwr::util::RngStream rng(
            config.master_seed ^ (0x9e3779b97f4a7c15ULL * (s + 1)) ^
            (static_cast<std::uint64_t>(kind) << 40) ^
            (dataset.options.size() * 0xc2b2ae3dULL));
        const core::MwuResult result =
            core::run_mwu(kind, oracle, mwu, std::move(rng));
        outcomes[unit] = {static_cast<double>(result.iterations),
                          dataset.options.accuracy_percent(result.best_option),
                          result.converged, true};
        layers.kind[k].add(now_ns() - t);
        layers.cycles[k] += result.iterations;
      }
    }
  }

  t = now_ns();
  Digest d;
  unit = 0;
  for (const datasets::Dataset& dataset : suite) {
    for (std::size_t k = 0; k < 3; ++k) {
      mwr::util::RunningStats iterations;
      mwr::util::RunningStats accuracy;
      std::size_t converged = 0;
      for (std::size_t s = 0; s < config.seeds; ++s, ++unit) {
        if (!outcomes[unit].ran) continue;
        iterations.add(outcomes[unit].iterations);
        accuracy.add(outcomes[unit].accuracy);
        if (outcomes[unit].converged) ++converged;
      }
      d.add(dataset.options.name());
      d.add(static_cast<std::uint64_t>(kColumnOrder[k]));
      d.add_double(iterations.mean());
      d.add_double(accuracy.mean());
      d.add(static_cast<std::uint64_t>(converged));
    }
  }
  layers.fold.add(now_ns() - t);
  return d.value();
}

void traced_table2(const Options& options, Report& report) {
  // The untraced reference: run_evaluation over every thread, for 15% of
  // the budget; the serial replay takes about (threads x parallel
  // efficiency) times as long.
  const SweepRun reference = run_sweeps(
      options,
      now_ns() + static_cast<std::int64_t>(options.seconds * 0.15e9));
  double reference_busy = 0.0;
  for (const double ms : reference.latency_ms) reference_busy += ms * 1e-3;

  // The first sweep again on one thread: the untraced counterpart of the
  // replay, which runs replications one at a time.
  costmodel::EvalConfig serial = sweep_config(options.seed, 0, options.smoke);
  serial.threads = 1;
  std::int64_t t = now_ns();
  const std::uint64_t serial_digest =
      cells_digest(costmodel::run_evaluation(serial));
  const double serial_s = seconds_between(t, now_ns());

  Tracer tracer;
  SweepLayers layers;
  double first_sweep_s = 0.0;
  bool replay_matches = serial_digest == reference.digests.front();
  const std::int64_t start = now_ns();
  for (std::size_t k = 0; k < reference.sweeps; ++k) {
    const SpanScope sweep(&tracer, "sweep", Tracer::kNone, k);
    t = now_ns();
    replay_matches &=
        replay_sweep(sweep_config(options.seed, k, options.smoke), layers,
                     tracer, sweep.index()) == reference.digests[k];
    if (k == 0) first_sweep_s = seconds_between(t, now_ns());
  }
  const double wall = seconds_between(start, now_ns());

  report.check("replay_reproduces_run_evaluation", replay_matches,
               std::to_string(reference.sweeps) + " sweeps");
  report.operations(2 * reference.sweeps + 1, replay_matches ? 0 : 1);
  double replication_s = 0.0;
  std::uint64_t cycles = 0;
  for (std::size_t k = 0; k < 3; ++k) {
    const std::string prefix = std::string("core.mwu.") + kKindNames[k];
    const Layer& layer = layers.kind[k];
    report.metric(prefix + ".ms_per_rep", layer.us_per_unit() * 1e-3);
    report.metric(prefix + ".ns_per_cycle",
                  ratio(static_cast<double>(layer.ns),
                        static_cast<double>(layers.cycles[k])));
    report.metric(prefix + ".share", layer.seconds() / wall);
    replication_s += layer.seconds();
    cycles += layers.cycles[k];
  }
  report.metric("core.mwu.cycles", static_cast<double>(cycles));
  report.metric("datasets.suite.share", layers.suite.seconds() / wall);
  report.metric("costmodel.sweep.parallel_efficiency",
                replication_s /
                    (reference_busy * static_cast<double>(bench_threads())));
  report.metric("trace.overhead", first_sweep_s / serial_s - 1.0);
  const double sum =
      (layers.suite.seconds() + replication_s + layers.fold.seconds()) / wall;
  check_layer_sum(report, "layer_sum", sum);
  report.metric("trace.layer_sum_ratio", sum);
  if (!options.trace_out.empty()) tracer.write_chrome(options.trace_out);
}

}  // namespace

void run_campaign_single(const Options& options, Report& report) {
  if (options.traced) {
    traced_single(options, report);
  } else {
    untraced_single(options, report);
  }
}

void run_table2_sweep(const Options& options, Report& report) {
  if (options.traced) {
    traced_table2(options, report);
  } else {
    untraced_table2(options, report);
  }
}

}  // namespace e2e
