// Shared scaffolding for the benches: the guarded entry point every bench
// runs under, flag handling, the gated benches' JSON layout and the
// family-grouped rendering the paper's tables use.
#pragma once

#include <exception>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "costmodel/evaluation.hpp"
#include "obs/serialization.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace mwr::bench {

/// Every bench's main: runs `body` and reports an escaping exception (a
/// bad flag, a failed --csv or --json write) as "<name>: <what>" on stderr
/// with exit status 1, instead of aborting.
inline int guarded_main(const char* name, int (*body)(int, char**),
                        int argc, char** argv) {
  try {
    return body(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << name << ": " << error.what() << "\n";
    return 1;
  }
}

/// Registers `--seed N`, the master seed (default 20210525).
inline void add_seed_flag(util::Cli& cli) {
  cli.add_int("seed", 20210525, "master seed for all replications");
}

/// Registers `--csv FILE` (default: disabled).
inline void add_csv_flag(util::Cli& cli) {
  cli.add_string("csv", "", "also write the table as CSV to this path");
}

/// Registers the six flags eval_config_from reads.  Only the benches that
/// sweep the whole standard suite take them.
inline void add_sweep_flags(util::Cli& cli) {
  cli.add_flag("full", "run at paper scale (100 seeds, sizes to 16384)");
  cli.add_int("seeds", 5, "replications per table cell");
  cli.add_int("max-size", 1024, "largest dataset instance size");
  add_seed_flag(cli);
  cli.add_int("threads", 4, "worker threads the replications fan out over");
  cli.add_int("max-population", 0,
              "override the Distributed population cap (0 = paper default); "
              "raising it makes Table II's '-' cells runnable");
}

/// Builds the EvalConfig from the add_sweep_flags flags; --full overrides
/// the reduced defaults with the paper-scale configuration.
inline costmodel::EvalConfig eval_config_from(const util::Cli& cli) {
  costmodel::EvalConfig config;
  config.seeds = static_cast<std::size_t>(cli.get_int("seeds"));
  config.max_size = static_cast<std::size_t>(cli.get_int("max-size"));
  config.master_seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  config.threads = static_cast<std::size_t>(cli.get_int("threads"));
  if (const auto cap = cli.get_int("max-population"); cap > 0) {
    // Opt-in: the paper default keeps Table II's two k=16384 Distributed
    // cells intractable (population ≈ 1.2M > 1M); raising the cap lets the
    // superstep engine actually run them on a bounded thread pool.
    config.mwu.max_population = static_cast<std::size_t>(cap);
  }
  if (cli.get_flag("full")) {
    config.seeds = 100;
    config.max_size = 16384;
  }
  return config;
}

/// Writes a gated bench's --json artifact to `path`: {"schema":
/// "mwr-bench-v3", "bench", "params", "metrics"}, where `metrics` maps
/// dotted names to numbers and bools.  .github/check_bench.py gates it
/// against the bench's committed bench/BENCH_*.baseline.json.
inline void write_bench_json(const char* bench, obs::JsonValue::Object params,
                             obs::JsonValue::Object metrics,
                             const std::string& path) {
  obs::write_json_file(obs::JsonValue::Object{{"schema", "mwr-bench-v3"},
                                              {"bench", bench},
                                              {"params", std::move(params)},
                                              {"metrics", std::move(metrics)}},
                       path);
  std::cout << "wrote " << path << "\n";
}

/// Emits one paper-style table from the evaluation cells: one row per
/// dataset, one column per algorithm, family separators between groups.
/// `cell_text` renders one EvalCell into its cell string.
template <typename CellText>
void emit_grouped_table(const std::vector<costmodel::EvalCell>& cells,
                        const std::string& title, CellText&& cell_text) {
  util::Table table(title);
  table.set_header({"Scenario", "Size", "Standard", "Distributed", "Slate"});
  std::string family;
  // Cells arrive dataset-major in column order Standard, Distributed, Slate.
  for (std::size_t i = 0; i + 2 < cells.size(); i += 3) {
    if (!family.empty() && cells[i].family != family) table.add_separator();
    family = cells[i].family;
    table.add_row({cells[i].dataset, std::to_string(cells[i].size),
                   cell_text(cells[i]), cell_text(cells[i + 1]),
                   cell_text(cells[i + 2])});
  }
  table.emit(std::cout);
}

}  // namespace mwr::bench
