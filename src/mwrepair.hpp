// Umbrella header: the whole MWRepair library through one include.
//
//   #include "mwrepair.hpp"
//
// Pulls in the MWU core (the paper's three realizations + the Exp3
// extension, regret instrumentation, checkpointing), the dataset
// generators, the APR substrate with MWRepair and campaigns, the
// baselines, the cost models, and the parallel substrate.  Individual
// module headers remain available for finer-grained includes.
#pragma once

#include "apr/campaign.hpp"           // IWYU pragma: export
#include "apr/fault_localization.hpp" // IWYU pragma: export
#include "apr/mutation.hpp"           // IWYU pragma: export
#include "apr/mutation_pool.hpp"      // IWYU pragma: export
#include "apr/mwrepair.hpp"           // IWYU pragma: export
#include "apr/program.hpp"            // IWYU pragma: export
#include "apr/test_oracle.hpp"        // IWYU pragma: export
#include "baselines/ae.hpp"           // IWYU pragma: export
#include "baselines/comparison.hpp"   // IWYU pragma: export
#include "baselines/genprog.hpp"      // IWYU pragma: export
#include "baselines/island_ga.hpp"    // IWYU pragma: export
#include "baselines/rsrepair.hpp"     // IWYU pragma: export
#include "core/distributed_mwu.hpp"   // IWYU pragma: export
#include "core/exp3_mwu.hpp"          // IWYU pragma: export
#include "core/floored_weight_mwu.hpp" // IWYU pragma: export
#include "core/mwu.hpp"               // IWYU pragma: export
#include "core/option_set.hpp"        // IWYU pragma: export
#include "core/parallel_driver.hpp"   // IWYU pragma: export
#include "core/regret.hpp"            // IWYU pragma: export
#include "core/slate_mwu.hpp"         // IWYU pragma: export
#include "core/slate_projection.hpp"  // IWYU pragma: export
#include "core/standard_mwu.hpp"      // IWYU pragma: export
#include "costmodel/asymptotics.hpp"  // IWYU pragma: export
#include "costmodel/cost_model.hpp"   // IWYU pragma: export
#include "costmodel/evaluation.hpp"   // IWYU pragma: export
#include "datasets/distributions.hpp" // IWYU pragma: export
#include "datasets/scenario.hpp"      // IWYU pragma: export
#include "datasets/suite.hpp"         // IWYU pragma: export
#include "obs/metrics.hpp"            // IWYU pragma: export
#include "obs/registry.hpp"           // IWYU pragma: export
#include "obs/serialization.hpp"      // IWYU pragma: export
#include "parallel/comm.hpp"          // IWYU pragma: export
#include "parallel/superstep.hpp"     // IWYU pragma: export
#include "util/rng.hpp"               // IWYU pragma: export
#include "util/stats.hpp"             // IWYU pragma: export
