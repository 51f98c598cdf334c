// Reproduces Table I: the asymptotic properties of the three MWU
// realizations, expressed uniformly in k, n, eps, delta — plus an
// *empirical validation* of the communication column against the real
// message-passing substrate:
//
//   - Standard's centralized reduction congests its root with n-1 messages
//     per cycle (O(n));
//   - Distributed's uniform neighbor observation is balls-into-bins, so the
//     heaviest-hit agent receives O(ln n / ln ln n) requests per cycle with
//     high probability.
//
// The empirical section runs both SPMD drivers over the in-process
// communicator and compares measured per-cycle maximum congestion with the
// bound.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/parallel_driver.hpp"
#include "costmodel/asymptotics.hpp"
#include "datasets/distributions.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace mwr;
  util::Cli cli("bench_table1_asymptotics — Table I + empirical congestion "
                "validation");
  bench::add_csv_flag(cli);
  cli.add_int("agents", 64, "SPMD agents for the empirical validation");
  if (!cli.parse(argc, argv)) return 0;

  util::WallTimer timer;

  // --- The symbolic table, as published.
  util::Table table(
      "Table I: asymptotic properties (k options, n nodes, eps error "
      "tolerance, delta = ln(beta/(1-beta)); * holds w.p. >= 1 - 1/n)");
  table.set_header({"Property", "Standard", "Distributed", "Slate"});
  for (const auto property :
       {costmodel::Property::kCommunication, costmodel::Property::kMemory,
        costmodel::Property::kConvergence, costmodel::Property::kMinAgents}) {
    table.add_row({costmodel::to_string(property),
                   costmodel::symbolic(core::MwuKind::kStandard, property),
                   costmodel::symbolic(core::MwuKind::kDistributed, property),
                   costmodel::symbolic(core::MwuKind::kSlate, property)});
  }
  table.emit(std::cout, cli.get_string("csv"));

  // --- Numeric evaluation at a concrete operating point.
  costmodel::OperatingPoint point;
  point.agents = static_cast<std::size_t>(cli.get_int("agents"));
  util::Table numeric("Table I evaluated at k=100, n=" +
                      std::to_string(point.agents) +
                      ", eps=0.05, beta=0.75 (constants = 1)");
  numeric.set_header({"Property", "Standard", "Distributed", "Slate"});
  for (const auto property :
       {costmodel::Property::kCommunication, costmodel::Property::kMemory,
        costmodel::Property::kConvergence, costmodel::Property::kMinAgents}) {
    numeric.add_row(
        {costmodel::to_string(property),
         util::fmt_fixed(
             costmodel::evaluate(core::MwuKind::kStandard, property, point), 1),
         util::fmt_fixed(costmodel::evaluate(core::MwuKind::kDistributed,
                                             property, point),
                         1),
         util::fmt_fixed(
             costmodel::evaluate(core::MwuKind::kSlate, property, point), 1)});
  }
  numeric.emit(std::cout);

  // --- Empirical congestion over the message-passing substrate.
  const std::size_t n = point.agents;
  const auto options = datasets::make_unimodal(32, 7);
  const core::BernoulliOracle oracle(options);
  core::MwuConfig config;
  config.num_options = options.size();
  config.num_agents = n;
  config.max_iterations = 60;

  const auto standard = core::run_standard_spmd(oracle, config, 99);
  const auto distributed =
      core::run_distributed_spmd(oracle, config, 99, /*population=*/n);

  util::Table empirical("Empirical per-cycle max congestion, n=" +
                        std::to_string(n) + " agents (message-passing "
                        "substrate)");
  empirical.set_header(
      {"Algorithm", "mean max/cycle", "worst cycle", "bound", "cycles"});
  empirical.add_row(
      {"Standard (centralized reduce)",
       util::fmt_fixed(standard.max_congestion_per_cycle.mean(), 1),
       util::fmt_fixed(standard.max_congestion_per_cycle.max(), 0),
       "O(n) = " + std::to_string(n),
       std::to_string(standard.max_congestion_per_cycle.count())});
  empirical.add_row(
      {"Distributed (neighbor observation)",
       util::fmt_fixed(distributed.max_congestion_per_cycle.mean(), 1),
       util::fmt_fixed(distributed.max_congestion_per_cycle.max(), 0),
       "O(ln n/ln ln n) = " +
           util::fmt_fixed(parallel::balls_into_bins_bound(n), 1),
       std::to_string(distributed.max_congestion_per_cycle.count())});

  // Engineering ablation: Standard's O(n) congestion is a property of the
  // centralized reduction, not of the algorithm — a binomial-tree
  // allreduce caps any node at ceil(log2 n) messages per cycle (paying
  // 2 log n sequential rounds instead).
  parallel::CommWorld tree_world(n);
  tree_world.run([&](parallel::Comm& comm) {
    for (int cycle = 0; cycle < 10; ++cycle) {
      (void)comm.allreduce_sum_tree({1.0});
      comm.barrier_close_cycle();
    }
  });
  empirical.add_row(
      {"Standard w/ tree reduction (ablation)",
       util::fmt_fixed(tree_world.congestion().max_per_cycle().mean(), 1),
       util::fmt_fixed(tree_world.congestion().max_per_cycle().max(), 0),
       "O(log n) = " + util::fmt_fixed(std::ceil(std::log2(n)), 0),
       std::to_string(tree_world.congestion().max_per_cycle().count())});
  empirical.emit(std::cout);

  std::cout << "(" << timer.elapsed_seconds() << "s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mwr::bench::guarded_main("bench_table1_asymptotics", run, argc, argv);
}
