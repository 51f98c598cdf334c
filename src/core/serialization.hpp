// Checkpointing for long-running MWU searches.
//
// An APR campaign can run for hours against an expensive test suite;
// losing learned weights to a restart wastes every probe paid for so far.
// These functions are the checkpoint seam (apr::RepairSession::save and
// restore call them): they capture a strategy's learned state as a flat
// double vector and restore it into a freshly constructed strategy of the
// same kind and shape.  Each variant owns its layout through
// MwuStrategy::export_state/import_state — weights for the global-memory
// variants, the choice vector for Distributed.  The campaign checkpoint
// (serve/checkpoint.hpp) stores that vector bit-exactly in its repair
// section.
#pragma once

#include <vector>

#include "core/mwu.hpp"

namespace mwr::core {

/// The strategy's learned state as a flat double vector, in the variant's
/// own layout (MwuStrategy::export_state).
[[nodiscard]] std::vector<double> export_state(const MwuStrategy& strategy);

/// Restores a vector captured by export_state into a freshly constructed
/// strategy of the same kind and shape.  The vector may come from an
/// untrusted checkpoint: throws std::invalid_argument for a non-finite
/// value here, and for a width that does not fit the strategy, invalid
/// weights, or a Distributed choice that is not an integer in
/// [0, num_options) in the variant's import.
void import_state(MwuStrategy& strategy, const std::vector<double>& state);

}  // namespace mwr::core
