// Choosing an MWU realization for a deployment, using the §IV-E cost model.
//
// Describe your deployment with three numbers and the model ranks the
// algorithms:
//   --probe-cost N   how expensive one option evaluation is, relative to
//                    sending one message (APR: huge — compile + test);
//   --options N      k, the size of the option set;
//   --agents N       parallel agents available.
//
// Build & run:  ./build/examples/algorithm_selection --probe-cost 1000
#include <algorithm>
#include <iostream>

#include "costmodel/cost_model.hpp"
#include "datasets/distributions.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace mwr;
  util::Cli cli("algorithm_selection — rank the three MWU realizations for "
                "a described deployment (Section IV-E cost model)");
  cli.add_double("probe-cost", 1000.0,
                 "cost of one option evaluation relative to one message");
  cli.add_int("options", 1000, "option-set size k");
  cli.add_int("agents", 64, "parallel agents available");
  cli.add_int("seeds", 3, "measurement replications");
  if (!cli.parse(argc, argv)) return 0;

  const auto k = static_cast<std::size_t>(cli.get_int("options"));
  const auto n = static_cast<std::size_t>(cli.get_int("agents"));
  const double probe_cost = cli.get_double("probe-cost");

  // Measure each algorithm once on a representative unimodal instance —
  // the empirical half of the §IV-E model.
  const auto options = datasets::make_unimodal(k, 77);
  core::MwuConfig mwu;
  mwu.num_options = k;
  mwu.num_agents = n;
  const auto observations = costmodel::observe_variants(
      options, mwu,
      static_cast<std::size_t>(std::max<std::int64_t>(0, cli.get_int("seeds"))),
      /*first_seed=*/1234);

  // Probe cost maps onto the model weights: expensive probes make the
  // evaluations term dominate; cheap probes leave communication in charge.
  costmodel::EmpiricalWeights weights;
  weights.communication = 1.0;
  weights.latency = 1.0;
  weights.evaluations = probe_cost;

  util::Table table("Deployment: k=" + std::to_string(k) + ", n=" +
                    std::to_string(n) + ", probe cost " +
                    util::fmt_fixed(probe_cost, 0) + " messages");
  table.set_header({"Algorithm", "measured cycles", "cpus/cycle",
                    "modeled total cost"});
  for (const auto& observation : observations) {
    table.add_row({core::to_string(observation.kind),
                   util::fmt_fixed(observation.cycles, 0),
                   util::fmt_fixed(observation.cpus_per_cycle, 0),
                   util::fmt_fixed(
                       costmodel::empirical_cost(observation, weights), 0)});
  }
  table.emit(std::cout);
  std::cout << "recommended: "
            << core::to_string(
                   costmodel::recommend_empirical(observations, weights))
            << "\n\n";
  std::cout << "Rule of thumb (Section IV-E.2): when probes are expensive "
               "and messages are tiny — the APR regime — the global-memory "
               "Standard algorithm wins despite its O(n) congestion; when "
               "communication dominates, Distributed's O(ln n / ln ln n) "
               "congestion pays for its CPU appetite.\n";
  return 0;
}
