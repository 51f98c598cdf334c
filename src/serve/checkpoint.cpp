#include "serve/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "core/serialization.hpp"
#include "serve/payload_codec.hpp"

namespace mwr::serve {

namespace {

constexpr std::uint64_t kFormatVersion = 1;

enum Section : std::int32_t {
  kHeader = 0,
  kRequest = 1,
  kBugs = 2,
  kPool = 3,
  kRepair = 4,
};

/// The frame's source field for checkpoint sections — a marker so a
/// checkpoint frame pasted into a live transport stream is recognizably
/// foreign ('CK').
constexpr std::int32_t kSectionSource = 0x434b;

/// The encoded section frames, joined only once their total size is known.
using SectionFrames = std::vector<std::vector<std::uint8_t>>;

void append_section(SectionFrames& out, std::uint64_t campaign_id,
                    Section section, std::vector<double> payload) {
  parallel::Message message;
  message.source = kSectionSource;
  message.tag = section;
  message.payload = parallel::PayloadVec(std::move(payload));
  out.push_back(core::serialize_message(
      message, static_cast<int>(campaign_id & 0x7fffffffull),
      /*tracked=*/false));
}

void write_bug(PayloadWriter& w, const apr::BugOutcome& bug) {
  w.u64(bug.bug_id);
  w.boolean(bug.repaired);
  w.u64(bug.patch_edits);
  w.u64(bug.maintenance_runs);
  w.u64(bug.pool_dropped);
  w.u64(bug.pool_size);
  w.u64(bug.online_probes);
  w.u64(bug.online_cycles);
}

apr::BugOutcome read_bug(PayloadReader& r) {
  apr::BugOutcome bug;
  bug.bug_id = static_cast<std::size_t>(r.u64());
  bug.repaired = r.boolean();
  bug.patch_edits = static_cast<std::size_t>(r.u64());
  bug.maintenance_runs = r.u64();
  bug.pool_dropped = static_cast<std::size_t>(r.u64());
  bug.pool_size = static_cast<std::size_t>(r.u64());
  bug.online_probes = r.u64();
  bug.online_cycles = static_cast<std::size_t>(r.u64());
  return bug;
}

}  // namespace

std::vector<std::uint8_t> encode_checkpoint(
    const CampaignCheckpoint& checkpoint) {
  const apr::CampaignSnapshot& snap = checkpoint.snapshot;
  SectionFrames out;

  PayloadWriter header;
  header.u64(kFormatVersion);
  header.u64(checkpoint.campaign_id);
  header.u64(snap.fingerprint);
  header.u64(snap.phase);
  header.u64(snap.bug_index);
  header.u64(snap.repaired_so_far);
  header.u64(snap.current_tests);
  header.u64(snap.precompute_runs);
  header.u64(snap.initial_pool_size);
  header.u64(snap.trajectory_hash);
  header.boolean(snap.has_repair_state);
  header.u64(snap.finished_bugs.size());
  header.u64(snap.working_pool.size());
  append_section(out, checkpoint.campaign_id, kHeader, header.take());

  PayloadWriter req;
  write_request(req, checkpoint.request);
  append_section(out, checkpoint.campaign_id, kRequest, req.take());

  PayloadWriter bugs;
  for (const apr::BugOutcome& bug : snap.finished_bugs) write_bug(bugs, bug);
  write_bug(bugs, snap.current_bug);
  append_section(out, checkpoint.campaign_id, kBugs, bugs.take());

  PayloadWriter pool;
  for (const apr::Mutation& m : snap.working_pool) {
    pool.u64(static_cast<std::uint64_t>(m.kind));
    pool.u64(m.target);
    pool.u64(m.donor);
  }
  append_section(out, checkpoint.campaign_id, kPool, pool.take());

  if (snap.has_repair_state) {
    const apr::RepairSession::State& repair = snap.repair;
    PayloadWriter rs;
    rs.u64(repair.rng_seed);
    for (const std::uint64_t word : repair.rng_state) rs.u64(word);
    rs.u64(repair.iterations);
    rs.u64(repair.probes);
    rs.u64(repair.trajectory_hash);
    rs.u64(repair.strategy.size());
    for (const double v : repair.strategy) rs.f64(v);
    append_section(out, checkpoint.campaign_id, kRepair, rs.take());
  }

  // Exact size: a queued checkpoint holds its buffer until the writer
  // thread runs, so growth slack (up to half the capacity) would stay
  // resident for every campaign while the writer lags.
  std::size_t total = 0;
  for (const std::vector<std::uint8_t>& frame : out) total += frame.size();
  std::vector<std::uint8_t> bytes;
  bytes.reserve(total);
  for (const std::vector<std::uint8_t>& frame : out)
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  return bytes;
}

CampaignCheckpoint decode_checkpoint(std::span<const std::uint8_t> bytes) {
  CampaignCheckpoint checkpoint;
  apr::CampaignSnapshot& snap = checkpoint.snapshot;
  bool have_header = false;
  bool have_request = false;
  bool have_bugs = false;
  bool have_pool = false;
  bool have_repair = false;
  std::uint64_t want_bugs = 0;
  std::uint64_t want_pool = 0;

  std::size_t offset = 0;
  while (offset < bytes.size()) {
    parallel::transport::WireFrame frame;
    const std::size_t used =
        parallel::transport::decode_frame(bytes.data() + offset,
                                          bytes.size() - offset, frame);
    if (used == 0)
      throw std::runtime_error("checkpoint: truncated section frame");
    offset += used;
    if (frame.kind != parallel::transport::FrameKind::kMessage ||
        frame.source != kSectionSource)
      throw std::runtime_error("checkpoint: not a checkpoint section frame");
    if (!have_header && frame.tag != kHeader)
      throw std::runtime_error("checkpoint: header section must come first");

    PayloadReader r(frame.payload);
    switch (frame.tag) {
      case kHeader: {
        const std::uint64_t version = r.u64();
        if (version != kFormatVersion)
          throw std::runtime_error("checkpoint: unsupported format version " +
                                   std::to_string(version));
        checkpoint.campaign_id = r.u64();
        snap.fingerprint = r.u64();
        snap.phase = static_cast<std::uint32_t>(r.u64());
        snap.bug_index = r.u64();
        snap.repaired_so_far = r.u64();
        snap.current_tests = r.u64();
        snap.precompute_runs = r.u64();
        snap.initial_pool_size = r.u64();
        snap.trajectory_hash = r.u64();
        snap.has_repair_state = r.boolean();
        want_bugs = r.u64();
        want_pool = r.u64();
        have_header = true;
        break;
      }
      case kRequest: {
        checkpoint.request = read_request(r);
        have_request = true;
        break;
      }
      case kBugs: {
        snap.finished_bugs.clear();
        for (std::uint64_t i = 0; i < want_bugs; ++i)
          snap.finished_bugs.push_back(read_bug(r));
        snap.current_bug = read_bug(r);
        have_bugs = true;
        break;
      }
      case kPool: {
        snap.working_pool.clear();
        snap.working_pool.reserve(static_cast<std::size_t>(want_pool));
        for (std::uint64_t i = 0; i < want_pool; ++i) {
          const std::uint64_t kind = r.u64();
          if (kind > static_cast<std::uint64_t>(apr::MutationKind::kSwap))
            throw std::runtime_error("checkpoint: bad mutation kind");
          apr::Mutation m;
          m.kind = static_cast<apr::MutationKind>(kind);
          m.target = static_cast<std::uint32_t>(r.u64());
          m.donor = static_cast<std::uint32_t>(r.u64());
          snap.working_pool.push_back(m);
        }
        have_pool = true;
        break;
      }
      case kRepair: {
        apr::RepairSession::State& repair = snap.repair;
        repair.rng_seed = r.u64();
        for (std::uint64_t& word : repair.rng_state) word = r.u64();
        repair.iterations = r.u64();
        repair.probes = r.u64();
        repair.trajectory_hash = r.u64();
        const std::uint64_t n = r.u64();
        if (n > r.remaining())
          throw std::runtime_error("checkpoint: truncated strategy state");
        repair.strategy.clear();
        repair.strategy.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i)
          repair.strategy.push_back(r.f64());
        have_repair = true;
        break;
      }
      default:
        throw std::runtime_error("checkpoint: unknown section tag " +
                                 std::to_string(frame.tag));
    }
    if (!r.done())
      throw std::runtime_error("checkpoint: trailing bytes in section " +
                               std::to_string(frame.tag));
  }

  if (!have_header || !have_request || !have_bugs || !have_pool)
    throw std::runtime_error("checkpoint: missing required section");
  if (snap.has_repair_state && !have_repair)
    throw std::runtime_error("checkpoint: repair section missing");
  return checkpoint;
}

std::size_t write_checkpoint_bytes(std::span<const std::uint8_t> bytes,
                                   const std::string& path, bool sync) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw std::runtime_error("checkpoint: cannot open " + tmp);
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ::ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw std::runtime_error("checkpoint: write failed: " + tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  // Durability before visibility: the rename must never publish a file
  // whose data is still only in the page cache.
  if (sync && ::fsync(fd) != 0) {
    ::close(fd);
    throw std::runtime_error("checkpoint: fsync failed: " + tmp);
  }
  if (::close(fd) != 0)
    throw std::runtime_error("checkpoint: close failed: " + tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("checkpoint: rename failed: " + path);
  return bytes.size();
}

std::size_t write_checkpoint_file(const CampaignCheckpoint& checkpoint,
                                  const std::string& path) {
  const std::vector<std::uint8_t> bytes = encode_checkpoint(checkpoint);
  return write_checkpoint_bytes(bytes, path, /*sync=*/false);
}

CampaignCheckpoint read_checkpoint_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("checkpoint: cannot open " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(file)),
                                  std::istreambuf_iterator<char>());
  return decode_checkpoint(bytes);
}

}  // namespace mwr::serve
