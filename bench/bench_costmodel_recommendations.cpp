// Reproduces §IV-E: the weighted cost model and its concrete
// recommendations, including the crossover between Standard and Distributed
// as the relative weight of communication vs convergence shifts.
//
// Paper shape to check:
//   - when communication dominates (alpha >> beta), the model prefers
//     Distributed;
//   - when evaluating options is expensive and messages are tiny — APR's
//     regime, alpha << beta — the global-memory, high-communication
//     Standard algorithm wins, the paper's "surprising result";
//   - weighting the CPUs used per iteration flips the preference away from
//     Distributed even in communication-heavy regimes.
#include "bench_common.hpp"
#include "costmodel/cost_model.hpp"
#include "datasets/scenario.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace mwr;
  util::Cli cli("bench_costmodel_recommendations — Section IV-E weighted "
                "cost model");
  bench::add_csv_flag(cli);
  cli.add_int("options", 1000, "k for the operating point");
  cli.add_int("agents", 64, "n for the operating point");
  if (!cli.parse(argc, argv)) return 0;

  util::WallTimer timer;
  costmodel::OperatingPoint point;
  point.options = static_cast<std::size_t>(cli.get_int("options"));
  point.agents = static_cast<std::size_t>(cli.get_int("agents"));

  const std::vector<double> ratios = {0.001, 0.01, 0.1, 0.5, 1,
                                      5,     10,   50,  100, 1000};

  util::Table sweep("Section IV-E: preferred algorithm vs communication/"
                    "convergence weight ratio (k=" +
                    std::to_string(point.options) +
                    ", n=" + std::to_string(point.agents) + ")");
  sweep.set_header({"w_comm/w_conv", "Standard cost", "Distributed cost",
                    "Slate cost", "preferred"});
  for (const auto& row : costmodel::crossover_sweep(point, ratios)) {
    sweep.add_row({util::fmt_fixed(row.comm_weight_ratio, 3),
                   util::fmt_fixed(row.standard_cost, 1),
                   util::fmt_fixed(row.distributed_cost, 1),
                   util::fmt_fixed(row.slate_cost, 1),
                   core::to_string(row.preferred)});
  }
  sweep.emit(std::cout, cli.get_string("csv"));

  util::Table cpu_sweep("Same sweep with CPU count weighted (w_cpu = 1): "
                        "constrained parallel resources");
  cpu_sweep.set_header({"w_comm/w_conv", "Standard cost", "Distributed cost",
                        "Slate cost", "preferred"});
  for (const auto& row :
       costmodel::crossover_sweep(point, ratios, /*cpu_weight=*/1.0)) {
    cpu_sweep.add_row({util::fmt_fixed(row.comm_weight_ratio, 3),
                       util::fmt_fixed(row.standard_cost, 1),
                       util::fmt_fixed(row.distributed_cost, 1),
                       util::fmt_fixed(row.slate_cost, 1),
                       core::to_string(row.preferred)});
  }
  cpu_sweep.emit(std::cout);

  // --- The empirically-grounded model (§IV-E: asymptotics alone favor
  // Distributed; the measured cycle counts and CPU usage flip the APR
  // recommendation to Standard).  Measure the three algorithms on the units
  // scenario (k = 1000, the paper's smallest C program) and apply the model
  // under both regimes.
  const auto spec = datasets::scenario_by_name("units");
  const auto options = spec.option_set();
  core::MwuConfig mwu;
  mwu.num_options = options.size();
  const auto observations = costmodel::observe_variants(
      options, mwu, /*seeds=*/3, /*first_seed=*/900);

  util::Table empirical("Section IV-E empirical model on the units scenario "
                        "(k=1000): total modeled cost per regime");
  empirical.set_header({"Algorithm", "cycles", "cpus/cycle",
                        "APR regime (evals dominate)",
                        "network regime (comm dominates)"});
  costmodel::EmpiricalWeights apr_regime;     // expensive probes, cheap msgs
  apr_regime.communication = 0.001;
  apr_regime.latency = 1.0;
  apr_regime.evaluations = 1.0;
  costmodel::EmpiricalWeights network_regime; // cheap probes, costly msgs
  network_regime.communication = 100.0;
  network_regime.latency = 1.0;
  network_regime.evaluations = 0.001;
  for (const auto& observation : observations) {
    empirical.add_row(
        {core::to_string(observation.kind),
         util::fmt_fixed(observation.cycles, 0),
         util::fmt_fixed(observation.cpus_per_cycle, 0),
         util::fmt_fixed(costmodel::empirical_cost(observation, apr_regime), 0),
         util::fmt_fixed(
             costmodel::empirical_cost(observation, network_regime), 0)});
  }
  empirical.emit(std::cout);
  std::cout << "APR regime recommendation: "
            << core::to_string(
                   costmodel::recommend_empirical(observations, apr_regime))
            << " (the paper's 'surprising result': global memory + high "
               "communication wins when probes are expensive)\n"
            << "network regime recommendation: "
            << core::to_string(costmodel::recommend_empirical(observations,
                                                              network_regime))
            << "\n(" << timer.elapsed_seconds() << "s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mwr::bench::guarded_main("bench_costmodel_recommendations", run, argc,
                                  argv);
}
