// In-process fleets: the closed loop that drives a campaign server from
// the same process, over either the real CampaignServer or the bench-side
// epoch driver.
//
// FleetDriver reproduces CampaignServer::run_epoch and restore_from_dir
// from the layers' public functions (DeficitScheduler, CampaignSession's
// staged units, SuperstepEngine::parallel_for, encode_checkpoint with its
// own CheckpointWriter, read_checkpoint_file + CampaignSession::resume)
// and times each call from outside.  It exists only until the server has
// phase timers of its own; the traced runs check that it reproduces the
// server's trajectory hashes exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fleet_client.hpp"
#include "serve/checkpoint_writer.hpp"
#include "serve/oracle_hub.hpp"
#include "serve/server.hpp"
#include "trace.hpp"

namespace e2e {

/// A campaign server driven in-process.
class InProcessFleet {
 public:
  virtual ~InProcessFleet() = default;
  /// Admission; nullopt when the resident cap refused the campaign.
  virtual std::optional<std::uint64_t> submit(
      const mwr::serve::SubmitRequest& request) = 0;
  virtual void run_epoch() = 0;
  /// A finished campaign's trajectory hash and result document, as a
  /// tenant fetches them; false while the campaign is still running.
  virtual bool fetch(std::uint64_t id, std::uint64_t& hash,
                     std::string& document) = 0;
  /// Destroys the server right after an epoch, without draining (the
  /// kill -9 stand-in), starts a fresh one and restores it from the
  /// checkpoint directory.  Returns the campaigns restored.
  virtual std::size_t restart_and_restore() = 0;
};

/// The real CampaignServer.
class ServerFleet final : public InProcessFleet {
 public:
  explicit ServerFleet(mwr::serve::ServerConfig config);
  std::optional<std::uint64_t> submit(
      const mwr::serve::SubmitRequest& request) override;
  void run_epoch() override;
  bool fetch(std::uint64_t id, std::uint64_t& hash,
             std::string& document) override;
  std::size_t restart_and_restore() override;

 private:
  mwr::serve::ServerConfig config_;
  std::unique_ptr<mwr::serve::CampaignServer> server_;
};

/// Per-layer time FleetDriver measured, summed over its lives.
struct DriverLayers {
  Layer submit;        ///< plan + session construction + admission.
  Layer scheduler;     ///< begin_epoch, per-grant epoch state, settle.
  Layer stage_setup;   ///< stage_unit calls that ran a setup unit.
  Layer stage_online;  ///< stage_unit calls that staged an online cycle.
  Layer wave;          ///< parallel_for over the staged probes; units = rounds.
  Layer complete;      ///< complete_unit.
  Layer retire;        ///< retirement, status polls, rendering results.
  Layer checkpoint;    ///< snapshot + encode + enqueue; units = campaigns.
  Layer restore;       ///< teardown + fresh server + reading and resuming.
  std::uint64_t probes = 0;
  std::uint64_t checkpoint_bytes = 0;

  [[nodiscard]] double total_seconds() const noexcept;
};

class FleetDriver final : public InProcessFleet {
 public:
  explicit FleetDriver(mwr::serve::ServerConfig config);
  ~FleetDriver() override;

  std::optional<std::uint64_t> submit(
      const mwr::serve::SubmitRequest& request) override;
  void run_epoch() override;
  bool fetch(std::uint64_t id, std::uint64_t& hash,
             std::string& document) override;
  std::size_t restart_and_restore() override;

  /// Starts timing from here: zeroes the layer accounts and the hub and
  /// writer baselines (call after a warm-up), and records spans into
  /// `tracer` from now on.
  void begin_measurement(Tracer* tracer);

  [[nodiscard]] const DriverLayers& layers() const noexcept { return layers_; }
  /// Hub and writer statistics since begin_measurement, over every life.
  [[nodiscard]] mwr::serve::OracleHub::Stats hub_stats() const;
  [[nodiscard]] mwr::serve::CheckpointWriter::Stats writer_stats() const;

 private:
  struct Life;
  void retire(std::uint64_t id);
  [[nodiscard]] std::string checkpoint_path(std::uint64_t id) const;
  /// Totals since construction, over every life.
  [[nodiscard]] mwr::serve::OracleHub::Stats total_hub_stats() const;
  [[nodiscard]] mwr::serve::CheckpointWriter::Stats total_writer_stats() const;

  mwr::serve::ServerConfig config_;
  Tracer* tracer_ = nullptr;
  std::unique_ptr<Life> life_;
  DriverLayers layers_;
  mwr::serve::OracleHub::Stats past_hub_;        ///< lives already ended.
  mwr::serve::CheckpointWriter::Stats past_writer_;
  mwr::serve::OracleHub::Stats base_hub_;        ///< at begin_measurement.
  mwr::serve::CheckpointWriter::Stats base_writer_;
  std::uint64_t epochs_ = 0;
};

/// The result document CampaignServer::result serves for an outcome.
std::string render_outcome(const mwr::apr::CampaignOutcome& outcome);

/// Campaigns a fleet keeps resident: the server's admission cap.
inline constexpr std::size_t kFleetResident = 256;

/// What the in-process closed loop runs.  It keeps kFleetResident
/// campaigns resident, refilling after every epoch, until `submissions`
/// were submitted, then drains.  It restarts the server once
/// (restart_and_restore), right after the first epoch by whose end
/// `restore_after` campaigns had been submitted.
struct LoopPlan {
  std::size_t submissions = 0;
  std::size_t restore_after = std::numeric_limits<std::size_t>::max();
  std::function<bool(std::size_t)> keep;  ///< documents to keep, by index.
  /// Also keep the documents of this many campaigns resident at restore.
  std::size_t keep_restored = 0;
};

struct LoopResult {
  std::vector<Completion> done;  ///< in finishing order.
  std::map<std::size_t, std::string> kept_documents;
  std::uint64_t rejected = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t restore_begin_ns = 0;   ///< 0 = no restart happened.
  std::int64_t restore_end_ns = 0;
};

LoopResult run_closed_loop(
    InProcessFleet& fleet, const RequestFn& make, const LoopPlan& plan,
    const std::function<void(std::size_t)>& on_epoch = {});

}  // namespace e2e
