// Bug-scenario descriptors and the analytic repair surface behind them.
//
// The paper's ten APR datasets (five C scenarios from ManyBugs + units,
// five Java scenarios from Defects4J) are reduced — by the paper itself —
// to option-value distributions over "how many safe mutations to combine".
// We reconstruct those distributions from the two empirical regularities
// the paper establishes in §III-B:
//
//   pass_probability(x) — combining x individually-safe mutations keeps the
//       test suite passing with probability exp(-q * x(x-1)/2): each
//       unordered pair interferes independently with probability q
//       (Fig 4a's decaying curve; for gzip, > 50% survival at x = 80);
//   repair_density(x)   — the probability a combination of x safe mutations
//       repairs the bug AND passes the suite:
//       (1 - (1-p)^x) * pass_probability(x), p being the per-mutation
//       repair-relevance rate.  The product of a saturating term and a
//       decaying term is the unimodal curve of Fig 4b, with its mode
//       anywhere from 11 to 271 across programs.
//
// calibrate_interference() inverts the model: given p and a target mode it
// finds the q that puts the repair-density optimum there, which is how each
// named scenario pins its published optimum (gzip ≈ 48).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/option_set.hpp"

namespace mwr::datasets {

/// P(x combined safe mutations still pass the whole required suite).
[[nodiscard]] double pass_probability(double x, double interference);

/// P(x combined safe mutations constitute a repair): saturation * survival.
[[nodiscard]] double repair_density(double x, double repair_rate,
                                    double interference);

/// argmax over integer x in [1, x_max] of repair_density.
[[nodiscard]] std::size_t repair_optimum(double repair_rate,
                                         double interference,
                                         std::size_t x_max = 4096);

/// Finds the pairwise interference rate q that places repair_optimum at
/// `target_optimum` (bisection; repair-density mode decreases in q).
[[nodiscard]] double calibrate_interference(double repair_rate,
                                            std::size_t target_optimum);

/// Everything needed to materialize one named bug scenario, both as an MWU
/// option set (Tables II-IV) and as an APR program surrogate (MWRepair and
/// the §IV-G comparison).
struct ScenarioSpec {
  std::string name;
  std::string language;          ///< "C" or "Java".
  std::size_t options = 100;     ///< k — the size column of Tables II-IV.
  std::size_t statements = 2000; ///< program-model size.
  std::size_t tests = 20;        ///< required regression tests.
  double coverage = 0.6;         ///< fraction of statements the suite covers.
  double safe_rate = 0.55;       ///< P(single mutation passes the suite).
  double repair_rate = 0.03;     ///< p — per-safe-mutation repair relevance.
  std::size_t optimum = 48;      ///< target mode of the repair density.
  std::size_t min_repair_edits = 1;  ///< repair needs >= this many relevant
                                     ///< mutations combined (multi-edit bugs).
  double value_noise = 0.02;     ///< idiosyncratic per-option jitter.
  std::uint64_t seed = 1;        ///< scenario-level determinism.
  /// Which bug in this program the scenario targets.  Only the
  /// repair-relevance draw and the bug-inducing test depend on it: coverage,
  /// safety, and interference are program properties, so a safe-mutation
  /// pool precomputed once stays valid across every bug of the program —
  /// the amortization §III-C builds on (see apr/campaign.hpp).
  std::size_t bug_id = 0;
  /// When true, repair-relevant mutations exist only among statements the
  /// bug-inducing test executes (the realistic coupling fault localization
  /// exploits; see apr/fault_localization.hpp).  The per-statement
  /// relevance rate inside that region is scaled up so the overall
  /// relevance rate over all covered statements stays `repair_rate`.
  /// Default off: the paper's evaluation does not model localization.
  bool relevance_localized = false;

  /// The calibrated pairwise interference rate for this scenario.
  [[nodiscard]] double interference() const;

  /// The MWU option set: option i is the (scaled) repair-density proxy for
  /// combining count_for_option(i) mutations, plus jitter, normalized into
  /// (0, 1).  Scenarios of equal `options` but different parameters yield
  /// different distributions — the paper's Java datasets "have the same
  /// number of options, but vary in the distribution of values over them".
  [[nodiscard]] core::OptionSet option_set() const;

  /// Mutation count that MWU option i stands for.  Counts cover
  /// [1, 4 * optimum] (the unimodal support) across k options.
  [[nodiscard]] std::size_t count_for_option(std::size_t option) const;

  /// FNV-1a fold of every field above, in declaration order: a string as
  /// its length and then one FNV step per byte, a count or flag as a u64,
  /// a rate as its bit pattern.  The campaign checkpoint fingerprint
  /// starts from it, so its bytes are pinned by every checkpoint; the
  /// OracleHub keys its programs, oracles and pools on it.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;
};

/// The five C scenarios (ManyBugs + units) of §IV-A.
[[nodiscard]] std::vector<ScenarioSpec> c_scenarios();

/// The five Java scenarios (Defects4J) of §IV-A.
[[nodiscard]] std::vector<ScenarioSpec> java_scenarios();

/// Looks a scenario up by name across both benchmarks; throws
/// std::invalid_argument if unknown.
[[nodiscard]] ScenarioSpec scenario_by_name(const std::string& name);

}  // namespace mwr::datasets
