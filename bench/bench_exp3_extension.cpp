// The Exp3 extension variant vs the paper's three realizations, on the
// full standard suite layout (reduced sizes).
//
// Exp3 is the classic adversarial-bandit MWU (importance-weighted rewards,
// gamma-floored exploration).  Expectation: accuracy comparable to Slate
// (both keep the gamma floor), cycle counts between Standard and Slate —
// its importance weighting updates every sampled option like Standard, but
// the exploration floor caps the achievable concentration like Slate.
#include <iostream>

#include "bench_common.hpp"
#include "costmodel/evaluation.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace mwr;
  util::Cli cli("bench_exp3_extension — Exp3 vs the paper's three variants");
  util::add_standard_bench_flags(cli);
  if (!cli.parse(argc, argv)) return 0;

  util::WallTimer timer;
  const auto seeds = static_cast<std::size_t>(cli.get_int("seeds"));
  const auto max_size = static_cast<std::size_t>(cli.get_int("max-size"));
  const auto master_seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  const auto suite = datasets::standard_suite(master_seed, max_size);
  util::Table table("Exp3 extension vs the paper's variants: cycles | acc% "
                    "(" + std::to_string(seeds) + " seeds)");
  table.set_header({"Scenario", "Standard", "Exp3", "Slate", "Distributed"});

  std::string family;
  for (const auto& dataset : suite) {
    if (!family.empty() && dataset.family != family) table.add_separator();
    family = dataset.family;
    const core::BernoulliOracle oracle(dataset.options);
    core::MwuConfig config;
    config.num_options = dataset.options.size();

    std::vector<std::string> row{dataset.options.name()};
    for (const auto kind : {core::MwuKind::kStandard, core::MwuKind::kExp3,
                            core::MwuKind::kSlate,
                            core::MwuKind::kDistributed}) {
      if (kind == core::MwuKind::kDistributed &&
          core::distributed_population(config) > config.max_population) {
        row.push_back("-");
        continue;
      }
      util::RunningStats cycles;
      util::RunningStats accuracy;
      for (std::size_t s = 0; s < seeds; ++s) {
        const auto result = core::run_mwu(
            kind, oracle, config, util::RngStream(master_seed + 31 * s + 7));
        cycles.add(static_cast<double>(result.iterations));
        accuracy.add(dataset.options.accuracy_percent(result.best_option));
      }
      row.push_back(util::fmt_fixed(cycles.mean(), 0) + " | " +
                    util::fmt_fixed(accuracy.mean(), 1));
    }
    table.add_row(std::move(row));
  }
  table.emit(std::cout, cli.get_string("csv"));
  std::cout << "(" << timer.elapsed_seconds() << "s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mwr::bench::guarded_main("bench_exp3_extension", run, argc, argv);
}
