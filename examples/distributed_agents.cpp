// Distributed MWU running for real over the message-passing substrate:
// one superstep-engine fiber per agent, observation requests as actual
// messages, and live congestion accounting against the balls-into-bins
// bound of Table I.
//
// Build & run:  ./build/examples/distributed_agents --agents 48
#include <iostream>

#include "core/parallel_driver.hpp"
#include "datasets/distributions.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace mwr;
  util::Cli cli("distributed_agents — SPMD Distributed MWU with congestion "
                "measurement");
  cli.add_int("agents", 48, "population size (one engine fiber per agent)");
  cli.add_int("options", 12, "option-set size k");
  cli.add_int("cycles", 100, "iteration cap");
  cli.add_int("seed", 99, "master seed");
  if (!cli.parse(argc, argv)) return 0;

  const auto agents = static_cast<std::size_t>(cli.get_int("agents"));
  const auto k = static_cast<std::size_t>(cli.get_int("options"));

  const auto options = datasets::make_unimodal(k, 5);
  const core::BernoulliOracle oracle(options);
  core::MwuConfig config;
  config.num_options = k;
  config.max_iterations = static_cast<std::size_t>(cli.get_int("cycles"));

  std::cout << "running " << agents << " agents on " << k
            << " options (best option " << options.best_option()
            << ", value " << options.best_value() << ")...\n";
  const auto run = core::run_distributed_spmd(
      oracle, config, static_cast<std::uint64_t>(cli.get_int("seed")), agents);

  util::Table table("Distributed MWU over the message-passing substrate");
  table.set_header({"metric", "value"});
  table.add_row({"converged (30% plurality)", run.result.converged ? "yes" : "no"});
  table.add_row({"update cycles", std::to_string(run.result.iterations)});
  table.add_row({"plurality option", std::to_string(run.result.best_option)});
  table.add_row({"accuracy",
                 util::fmt_fixed(
                     options.accuracy_percent(run.result.best_option), 1) +
                     "%"});
  table.add_row({"oracle evaluations", std::to_string(run.result.evaluations)});
  table.add_row({"observation messages", std::to_string(run.total_messages)});
  table.add_row({"mean max congestion / cycle",
                 util::fmt_fixed(run.max_congestion_per_cycle.mean(), 2)});
  table.add_row({"worst cycle congestion",
                 util::fmt_fixed(run.max_congestion_per_cycle.max(), 0)});
  table.add_row({"balls-into-bins bound ln n/ln ln n",
                 util::fmt_fixed(parallel::balls_into_bins_bound(agents), 2)});
  table.emit(std::cout);

  std::cout << "Note: the heaviest-hit agent serves only ~ln n/ln ln n "
               "requests per cycle — the Table I communication advantage of "
               "the Distributed realization.  Compare Standard, whose "
               "end-of-cycle reduction concentrates n-1 messages at one "
               "node.\n";
  return 0;
}
