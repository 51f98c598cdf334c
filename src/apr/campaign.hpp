// Multi-bug repair campaigns: the amortization workflow of §III-C made
// concrete.
//
// "Most deployed software has an associated regression test suite.  New
// tests may be added over time ... and the safe mutation pool can be
// updated incrementally whenever this occurs.  As defects are repaired,
// the failing test(s) that exposed the defect can be added to the test
// suite, [and] the precomputed pool can be run on the new test(s)."
//
// RepairCampaign runs that loop: one program, a sequence of bugs.  The
// pool is precomputed once; before each bug it is revalidated against the
// suite grown by every previously-repaired bug's trigger test (dropping
// members the new tests expose), and the online MWU phase then reuses it.
// The per-bug cost therefore falls from (precompute + search) for the
// first bug to (small maintenance + search) for every later one — the
// economics that justify phase 1.
#pragma once

#include <cstdint>
#include <vector>

#include "apr/mwrepair.hpp"

namespace mwr::apr {

struct CampaignConfig {
  std::size_t bugs = 5;            ///< defects to repair, in sequence.
  PoolConfig pool;                 ///< phase-1 configuration (run once).
  MwRepairConfig repair;           ///< per-bug online configuration.
  bool grow_suite = true;          ///< add each repaired bug's trigger test.
};

/// Cost ledger for one bug of the campaign.
struct BugOutcome {
  std::size_t bug_id = 0;
  bool repaired = false;
  std::size_t patch_edits = 0;
  std::uint64_t maintenance_runs = 0;  ///< pool revalidation suite runs.
  std::size_t pool_dropped = 0;        ///< members the grown suite exposed.
  std::size_t pool_size = 0;           ///< pool size used for this bug.
  std::uint64_t online_probes = 0;     ///< phase-2 suite runs.
  std::size_t online_cycles = 0;

  /// Total per-bug suite runs (maintenance + search; the one-time
  /// precompute is reported on the campaign).
  [[nodiscard]] std::uint64_t suite_runs() const noexcept {
    return maintenance_runs + online_probes;
  }
};

struct CampaignOutcome {
  std::uint64_t precompute_runs = 0;   ///< one-time phase-1 cost.
  std::size_t initial_pool_size = 0;
  std::vector<BugOutcome> bugs;

  [[nodiscard]] std::size_t repaired() const noexcept;
  /// Mean per-bug suite runs *excluding* the one-time precompute.
  [[nodiscard]] double mean_bug_cost() const noexcept;
  /// Mean per-bug suite runs with the precompute amortized evenly.
  [[nodiscard]] double amortized_bug_cost() const noexcept;
};

/// Runs the campaign on the program described by `base`: bug i uses
/// bug_id = i and a suite grown by one trigger test per previously-repaired
/// bug (when config.grow_suite).  The suite is capped at the oracle's
/// 64-test model limit.  The pool and each bug's primed oracle come from
/// OracleHub::process(), so a repeat call on the same program and pool
/// configuration skips phase 1 and charges the same precompute_runs: the
/// outcome is the same as on a fresh hub.
[[nodiscard]] CampaignOutcome run_campaign(const datasets::ScenarioSpec& base,
                                           const CampaignConfig& config);

}  // namespace mwr::apr
