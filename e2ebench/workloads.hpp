// The four end-to-end workloads.  Each is a closed loop from this one
// process that measures for Options::seconds and then checks its outputs.
//
// Untraced runs time the real programs (mwr_served over its socket, the
// in-process CampaignServer, apr::run_campaign, costmodel::run_evaluation)
// and report the end-to-end metrics.  Traced runs first repeat a shorter
// untraced run, then replay exactly the same inputs through the layers'
// public functions under the bench's own timers, report the per-layer
// metrics, and fail unless the replay reproduces the untraced digest.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace e2e {

void run_fleet_wire(const Options& options, Report& report);
void run_fleet_durable(const Options& options, Report& report);
void run_campaign_single(const Options& options, Report& report);
void run_table2_sweep(const Options& options, Report& report);

/// Names accepted by --workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Dispatches by name; throws std::invalid_argument for an unknown one.
void run_workload(const Options& options, Report& report);

/// Setup times are measured several times per run; the median is reported.
inline constexpr int kSetupRepeats = 5;

}  // namespace e2e
