// The Exp3 extension variant vs the paper's three realizations, on the
// full standard suite layout (reduced sizes).
//
// Exp3 is the classic adversarial-bandit MWU (importance-weighted rewards,
// gamma-floored exploration).  Expectation: accuracy comparable to Slate
// (both keep the gamma floor), cycle counts between Standard and Slate —
// its importance weighting updates every sampled option like Standard, but
// the exploration floor caps the achievable concentration like Slate.
#include "bench_common.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace mwr;
  util::Cli cli("bench_exp3_extension — Exp3 vs the paper's three variants");
  bench::add_sweep_flags(cli);
  bench::add_csv_flag(cli);
  if (!cli.parse(argc, argv)) return 0;

  util::WallTimer timer;
  const auto config = bench::eval_config_from(cli);
  const auto suite =
      datasets::standard_suite(config.master_seed, config.max_size);
  constexpr core::MwuKind kColumns[] = {
      core::MwuKind::kStandard, core::MwuKind::kExp3, core::MwuKind::kSlate,
      core::MwuKind::kDistributed};
  std::vector<costmodel::SweepCell> plan;
  for (const auto& dataset : suite) {
    core::MwuConfig mwu = config.mwu;
    mwu.num_options = dataset.options.size();
    mwu.max_iterations = config.max_iterations;
    for (const auto kind : kColumns)
      plan.push_back({&dataset.options, kind, mwu});
  }
  const auto cells = costmodel::run_sweep(
      plan, config.seeds,
      [&config](const costmodel::SweepCell&, std::size_t s) {
        return config.master_seed + 31 * s + 7;
      },
      config.threads);

  util::Table table("Exp3 extension vs the paper's variants: cycles | acc% "
                    "(" + std::to_string(config.seeds) + " seeds)");
  table.set_header({"Scenario", "Standard", "Exp3", "Slate", "Distributed"});
  std::string family;
  for (std::size_t d = 0; d < suite.size(); ++d) {
    if (!family.empty() && suite[d].family != family) table.add_separator();
    family = suite[d].family;
    std::vector<std::string> row{suite[d].options.name()};
    for (std::size_t c = 0; c < std::size(kColumns); ++c) {
      const auto& cell = cells[d * std::size(kColumns) + c];
      row.push_back(cell.intractable
                        ? "-"
                        : util::fmt_fixed(cell.iterations.mean(), 0) + " | " +
                              util::fmt_fixed(cell.accuracy.mean(), 1));
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
