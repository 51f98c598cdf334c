#include "serve/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "serve/payload_codec.hpp"

namespace mwr::serve {

namespace {

using parallel::transport::FrameKind;
using parallel::transport::WireFrame;

constexpr std::uint32_t kFormatVersion = 2;

/// The section tag each frame carries in its `value` field.
enum Section : std::uint64_t {
  kHeader = 0,
  kRequest = 1,
  kBugs = 2,
  kPool = 3,
  kRepair = 4,
};

/// The frame's source field for checkpoint sections — a marker that
/// tells them apart from kCheckpoint control frames (source 0 or 1) and
/// makes a section pasted into a live stream recognizably foreign ('CK').
constexpr std::int32_t kSectionSource = 0x434b;

/// Smallest encodings of one bug ledger and one pool triple, for
/// PayloadReader::count.
constexpr std::size_t kBugBytes = 1 + 7 * 8;
constexpr std::size_t kMutationBytes = 1 + 4 + 4;

WireFrame section(Section tag, PayloadWriter& w) {
  WireFrame f = WireFrame::control(FrameKind::kCheckpoint, tag);
  f.source = kSectionSource;
  f.bytes = w.take();
  return f;
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
  bug.bug_id = r.u64();
  bug.repaired = r.boolean();
  bug.patch_edits = r.u64();
  bug.maintenance_runs = r.u64();
  bug.pool_dropped = r.u64();
  bug.pool_size = r.u64();
  bug.online_probes = r.u64();
  bug.online_cycles = r.u64();
  return bug;
}

/// A failed write leaves no tmp file behind: closes `fd` (unless it is -1,
/// already closed), unlinks `tmp`, then throws.
[[noreturn]] void discard_and_throw(int fd, const std::string& tmp,
                                    const std::string& what) {
  if (fd >= 0) ::close(fd);
  ::unlink(tmp.c_str());
  throw std::runtime_error("checkpoint: " + what);
}

}  // namespace

std::vector<std::uint8_t> encode_checkpoint(
    const CampaignCheckpoint& checkpoint) {
  const apr::CampaignSnapshot& snap = checkpoint.snapshot;
  std::vector<WireFrame> sections;

  PayloadWriter header;
  header.u32(kFormatVersion);
  header.u64(checkpoint.campaign_id);
  header.u64(snap.fingerprint);
  header.u32(snap.phase);
  header.u64(snap.bug_index);
  header.u64(snap.repaired_so_far);
  header.u64(snap.current_tests);
  header.u64(snap.precompute_runs);
  header.u64(snap.initial_pool_size);
  header.u64(snap.trajectory_hash);
  header.boolean(snap.has_repair_state);
  sections.push_back(section(kHeader, header));

  PayloadWriter req;
  write_request(req, checkpoint.request);
  sections.push_back(section(kRequest, req));

  PayloadWriter bugs;
  bugs.count(snap.finished_bugs.size());
  for (const apr::BugOutcome& bug : snap.finished_bugs) write_bug(bugs, bug);
  write_bug(bugs, snap.current_bug);
  sections.push_back(section(kBugs, bugs));

  PayloadWriter pool;
  pool.count(snap.working_pool.size());
  for (const apr::Mutation& m : snap.working_pool) {
    pool.u8(static_cast<std::uint8_t>(m.kind));
    pool.u32(m.target);
    pool.u32(m.donor);
  }
  sections.push_back(section(kPool, pool));

  if (snap.has_repair_state) {
    const apr::RepairSession::State& repair = snap.repair;
    PayloadWriter rs;
    rs.u64(repair.rng_seed);
    for (const std::uint64_t word : repair.rng_state) rs.u64(word);
    rs.u64(repair.iterations);
    rs.u64(repair.probes);
    rs.u64(repair.trajectory_hash);
    rs.count(repair.strategy.size());
    for (const double v : repair.strategy) rs.f64(v);
    sections.push_back(section(kRepair, rs));
  }

  // Exact size: a queued checkpoint holds its buffer until the writer
  // thread runs, so growth slack (up to half the capacity) would stay
  // resident for every campaign while the writer lags.
  std::size_t total = 0;
  for (const WireFrame& f : sections)
    total += parallel::transport::encoded_size(f);
  std::vector<std::uint8_t> bytes;
  bytes.reserve(total);
  for (const WireFrame& f : sections) parallel::transport::encode_frame(f, bytes);
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

  std::size_t offset = 0;
  while (offset < bytes.size()) {
    WireFrame frame;
    const std::size_t used =
        parallel::transport::decode_frame(bytes.data() + offset,
                                          bytes.size() - offset, frame);
    if (used == 0)
      throw std::runtime_error("checkpoint: truncated section frame");
    offset += used;
    if (frame.kind != FrameKind::kCheckpoint ||
        frame.source != kSectionSource)
      throw std::runtime_error("checkpoint: not a checkpoint section frame");
    if (!have_header && frame.value != kHeader)
      throw std::runtime_error("checkpoint: header section must come first");

    PayloadReader r(frame.bytes);
    switch (frame.value) {
      case kHeader: {
        const std::uint32_t version = r.u32();
        if (version != kFormatVersion)
          throw std::runtime_error("checkpoint: unsupported format version " +
                                   std::to_string(version));
        checkpoint.campaign_id = r.u64();
        snap.fingerprint = r.u64();
        snap.phase = r.u32();
        snap.bug_index = r.u64();
        snap.repaired_so_far = r.u64();
        snap.current_tests = r.u64();
        snap.precompute_runs = r.u64();
        snap.initial_pool_size = r.u64();
        snap.trajectory_hash = r.u64();
        snap.has_repair_state = r.boolean();
        have_header = true;
        break;
      }
      case kRequest: {
        checkpoint.request = read_request(r);
        have_request = true;
        break;
      }
      case kBugs: {
        const std::size_t n = r.count(kBugBytes);
        snap.finished_bugs.clear();
        snap.finished_bugs.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
          snap.finished_bugs.push_back(read_bug(r));
        snap.current_bug = read_bug(r);
        have_bugs = true;
        break;
      }
      case kPool: {
        const std::size_t n = r.count(kMutationBytes);
        snap.working_pool.clear();
        snap.working_pool.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint8_t kind = r.u8();
          if (kind > static_cast<std::uint8_t>(apr::MutationKind::kSwap))
            throw std::runtime_error("checkpoint: bad mutation kind");
          apr::Mutation m;
          m.kind = static_cast<apr::MutationKind>(kind);
          m.target = r.u32();
          m.donor = r.u32();
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
        const std::size_t n = r.count(sizeof(double));
        repair.strategy.clear();
        repair.strategy.reserve(n);
        for (std::size_t i = 0; i < n; ++i) repair.strategy.push_back(r.f64());
        have_repair = true;
        break;
      }
      default:
        throw std::runtime_error("checkpoint: unknown section tag " +
                                 std::to_string(frame.value));
    }
    if (!r.done())
      throw std::runtime_error("checkpoint: trailing bytes in section " +
                               std::to_string(frame.value));
  }

  if (!have_header || !have_request || !have_bugs || !have_pool)
    throw std::runtime_error("checkpoint: missing required section");
  if (snap.has_repair_state && !have_repair)
    throw std::runtime_error("checkpoint: repair section missing");
  return checkpoint;
}

std::size_t write_checkpoint_bytes(std::span<const std::uint8_t> bytes,
                                   const std::string& path) {
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
      discard_and_throw(fd, tmp, "write failed: " + tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  // Durability before visibility: the rename must never publish a file
  // whose data is still only in the page cache.
  if (::fsync(fd) != 0) discard_and_throw(fd, tmp, "fsync failed: " + tmp);
  if (::close(fd) != 0) discard_and_throw(-1, tmp, "close failed: " + tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    discard_and_throw(-1, tmp, "rename failed: " + path);
  return bytes.size();
}

CampaignCheckpoint read_checkpoint_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("checkpoint: cannot open " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(file)),
                                  std::istreambuf_iterator<char>());
  return decode_checkpoint(bytes);
}

}  // namespace mwr::serve
