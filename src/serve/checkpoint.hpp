// Durable campaign checkpoints: CampaignSnapshot <-> MWRW wire frames.
//
// A daemon restart must not forfeit the suite runs already paid for by
// thousands of in-flight campaigns.  Each resident campaign therefore
// serializes, between update cycles, to a self-contained file that a
// fresh daemon can load and resume *bit-identically*: the restored
// session replays the exact stochastic trajectory (same RNG stream
// state, same MWU weights, same working pool) the uninterrupted run
// would have produced, verified end-to-end by the trajectory-hash pin in
// tests/test_serve.cpp.
//
// The file is a sequence of MWRW kCheckpoint frames, one per section,
// built directly on the wire codec (parallel/transport/wire.hpp): source
// 'CK' marks a section, `value` carries its tag, and `bytes` its fields
// at their declared widths (serve/payload_codec.hpp):
//
//   0 header   — u32 format version (2), u64 campaign id, then the
//                snapshot scalars: u64 fingerprint, u32 phase, u64
//                bug_index / repaired_so_far / current_tests /
//                precompute_runs / initial_pool_size / trajectory_hash,
//                bool has_repair_state;
//   1 request  — the original SubmitRequest (the campaign definition,
//                so resume needs no side channel; write_request's layout);
//   2 bugs     — u32 count, that many finished-bug ledgers, then the
//                in-flight bug's (each u64 id, bool repaired, six u64
//                counters);
//   3 pool     — u32 count, then (u8 kind, u32 target, u32 donor) triples;
//   4 repair   — u64 RNG seed, 4 x u64 RNG state, u64 iterations /
//                probes / trajectory hash, u32 count plus that many f64
//                strategy values (bit-exact); present only when a
//                RepairSession was live.
//
// The header comes first.  The bytes inherit the wire format's version
// check, endianness discipline and length-prefixed framing, so any
// tooling that can read a transport trace can read a checkpoint.  There
// is no checksum: a truncated file or a malformed field fails to decode
// (restore_from_dir skips the file), but a flipped bit inside a field's
// value goes undetected.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "apr/campaign_session.hpp"
#include "serve/control.hpp"

namespace mwr::serve {

struct CampaignCheckpoint {
  std::uint64_t campaign_id = 0;
  SubmitRequest request;          ///< definition: replan on resume.
  apr::CampaignSnapshot snapshot; ///< execution state between cycles.
};

/// Encodes to the framed byte sequence described above.
[[nodiscard]] std::vector<std::uint8_t> encode_checkpoint(
    const CampaignCheckpoint& checkpoint);

/// Decodes a byte sequence produced by encode_checkpoint.  Throws
/// std::runtime_error on truncation, unknown sections, or any format
/// version but 2.
[[nodiscard]] CampaignCheckpoint decode_checkpoint(
    std::span<const std::uint8_t> bytes);

/// Writes `bytes` to `path + ".tmp"`, fsyncs it, then renames it over
/// `path`, so a crash mid-write never leaves a torn checkpoint under the
/// canonical name (a kill -9 mid-flush leaves only the tmp file, which
/// restore_from_dir ignores).  Returns bytes.size().  Throws
/// std::runtime_error on I/O failure; a failure after the tmp file is
/// opened unlinks it first.
std::size_t write_checkpoint_bytes(std::span<const std::uint8_t> bytes,
                                   const std::string& path);

/// Reads and decodes one checkpoint file.
[[nodiscard]] CampaignCheckpoint read_checkpoint_file(const std::string& path);

}  // namespace mwr::serve
