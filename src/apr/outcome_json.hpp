// One JSON schema for repair results, whether the campaign ran as a
// single-shot CLI invocation or through the campaign server.
//
// The CLI historically printed human tables only; the server needs a
// machine-readable result frame; CI wants to diff both against goldens.
// "mwr-campaign-outcome-v1" is that common shape:
//
//   {"schema": "mwr-campaign-outcome-v1",
//    "mode": "campaign" | "single",
//    "precompute_runs": n, "initial_pool_size": n, "repaired": n,
//    "mean_bug_cost": x, "amortized_bug_cost": x,
//    "bugs": [{"bug_id": i, "repaired": b, "patch_edits": n,
//              "maintenance_runs": n, "pool_dropped": n, "pool_size": n,
//              "online_probes": n, "online_cycles": n, "suite_runs": n}]}
//
// Every field is a deterministic function of (scenario, config, seed) —
// no wall times — so the export is golden-testable byte for byte.
// Single-shot mode (repair_tool without --campaign) is a one-bug
// campaign; only its "mode" label differs.
#pragma once

#include <string>

#include "apr/campaign.hpp"
#include "obs/serialization.hpp"

namespace mwr::apr {

/// `mode` is the document's "mode" label: "campaign", or "single" for
/// repair_tool's single-shot run.
[[nodiscard]] obs::JsonValue outcome_to_json(const CampaignOutcome& outcome,
                                             const char* mode = "campaign");

/// Pretty-prints (2-space indent, trailing newline) to `path`; throws
/// std::runtime_error on I/O failure.  This is what --outcome-out writes.
void write_outcome_json(const obs::JsonValue& outcome,
                        const std::string& path);

}  // namespace mwr::apr
