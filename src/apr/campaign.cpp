#include "apr/campaign.hpp"

#include <algorithm>
#include <limits>

#include "apr/campaign_session.hpp"
#include "parallel/superstep.hpp"

namespace mwr::apr {

std::size_t CampaignOutcome::repaired() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(bugs.begin(), bugs.end(),
                    [](const BugOutcome& b) { return b.repaired; }));
}

double CampaignOutcome::mean_bug_cost() const noexcept {
  if (bugs.empty()) return 0.0;
  std::uint64_t total = 0;
  for (const auto& bug : bugs) total += bug.suite_runs();
  return static_cast<double>(total) / static_cast<double>(bugs.size());
}

double CampaignOutcome::amortized_bug_cost() const noexcept {
  if (bugs.empty()) return 0.0;
  return mean_bug_cost() + static_cast<double>(precompute_runs) /
                               static_cast<double>(bugs.size());
}

CampaignOutcome run_campaign(const datasets::ScenarioSpec& base,
                             const CampaignConfig& config) {
  // The campaign is a CampaignSession stepped to completion: the session
  // performs every phase (precompute, per-bug revalidation, online MWU
  // cycles) in the same order as the historical monolithic loop, so this
  // wrapper is bit-identical to it.  Servers drive the same session a few
  // cycles at a time instead (serve/server.hpp).  The session draws from
  // the process hub, so only the call that builds a pool records phase
  // 1's telemetry (pool.*, phase.precompute.seconds); a repeat call
  // counts a hit in serve.hub.pool_hits instead.
  CampaignSession session(base, config);
  parallel::SuperstepEngine workers(
      1, parallel::SuperstepEngine::Config{
             std::max<std::size_t>(1, config.repair.eval_threads)});
  while (!session.done()) {
    session.step(std::numeric_limits<std::size_t>::max(), &workers);
  }
  return session.outcome();
}

}  // namespace mwr::apr
