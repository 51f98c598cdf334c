#include "apr/outcome_json.hpp"

#include <utility>

namespace mwr::apr {

namespace {
constexpr const char* kSchema = "mwr-campaign-outcome-v1";

obs::JsonValue bug_to_json(const BugOutcome& bug) {
  obs::JsonValue b = obs::JsonValue::object();
  b.set("bug_id", static_cast<double>(bug.bug_id));
  b.set("repaired", bug.repaired);
  b.set("patch_edits", static_cast<double>(bug.patch_edits));
  b.set("maintenance_runs", static_cast<double>(bug.maintenance_runs));
  b.set("pool_dropped", static_cast<double>(bug.pool_dropped));
  b.set("pool_size", static_cast<double>(bug.pool_size));
  b.set("online_probes", static_cast<double>(bug.online_probes));
  b.set("online_cycles", static_cast<double>(bug.online_cycles));
  b.set("suite_runs", static_cast<double>(bug.suite_runs()));
  return b;
}
}  // namespace

obs::JsonValue outcome_to_json(const CampaignOutcome& outcome,
                               const char* mode) {
  obs::JsonValue root = obs::JsonValue::object();
  root.set("schema", kSchema);
  root.set("mode", mode);
  root.set("precompute_runs", static_cast<double>(outcome.precompute_runs));
  root.set("initial_pool_size",
           static_cast<double>(outcome.initial_pool_size));
  root.set("repaired", static_cast<double>(outcome.repaired()));
  root.set("mean_bug_cost", outcome.mean_bug_cost());
  root.set("amortized_bug_cost", outcome.amortized_bug_cost());
  obs::JsonValue bugs = obs::JsonValue::array();
  for (const BugOutcome& bug : outcome.bugs) bugs.push_back(bug_to_json(bug));
  root.set("bugs", std::move(bugs));
  return root;
}

}  // namespace mwr::apr
