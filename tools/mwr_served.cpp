// mwr_served — the repair-as-a-service campaign daemon.
//
// Listens on a Unix-domain control socket for MWRW control frames
// (serve/control.hpp): clients submit campaigns, poll status, fetch
// results, request checkpoints, and ask for a drain-and-exit shutdown.
// Resident campaigns advance one deficit-round-robin epoch at a time on
// the bounded superstep engine — thousands of tenants, a fixed worker
// pool, and no tenant starved (serve/scheduler.hpp).  The control loop
// (serve/control_loop.hpp) answers requests while each epoch's campaigns
// step, and never blocks on a client that does not read.
//
// Durability: with --checkpoint-dir the daemon persists every resident
// campaign's snapshot (each --checkpoint-every epochs and on demand);
// a daemon relaunched with --resume picks those campaigns up and
// finishes them bit-identically to an uninterrupted run — kill -9 in
// the middle of a campaign loses at most the cycles since the last
// checkpoint, never the trajectory's identity.
//
// Exit codes: 0 orderly shutdown (drain command or idle timeout),
// 1 configuration or runtime failure, a failed --metrics-out write included.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "serve/control_loop.hpp"
#include "serve/control_socket.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace mwr;

  util::Cli cli(
      "mwr_served: campaign server — multiplexes concurrent MWRepair "
      "campaigns over a UDS control socket");
  cli.add_string("socket", "", "control socket path (required)");
  cli.add_int("max-campaigns", 256, "admission cap on resident campaigns");
  cli.add_int("quantum", 8, "DRR work units per campaign per epoch");
  cli.add_int("workers", 0, "engine worker threads (0 = hardware)");
  cli.add_string("checkpoint-dir", "", "campaign checkpoint directory");
  cli.add_int("checkpoint-every", 0,
              "auto-checkpoint period in epochs (0 = only on request)");
  cli.add_flag("resume", "restore campaigns from checkpoint-dir at boot");
  cli.add_double("idle-exit-seconds", 0.0,
                 "exit after this long with no work and no clients "
                 "(0 = run until shutdown command)");
  cli.add_int("stall-after-epochs", 0,
              "stop advancing campaigns after N epochs but keep serving "
              "the control plane (0 = never; CI uses this to kill -9 a "
              "daemon that is deterministically mid-campaign)");
  util::add_metrics_flag(cli);
  if (!cli.parse(argc, argv)) return 0;

  const std::string socket_path = cli.get_string("socket");
  if (socket_path.empty())
    throw std::runtime_error("mwr_served: --socket is required");

  serve::ServerConfig config;
  config.max_resident = static_cast<std::size_t>(cli.get_int("max-campaigns"));
  config.quantum = static_cast<std::size_t>(cli.get_int("quantum"));
  config.workers = static_cast<std::size_t>(cli.get_int("workers"));
  config.checkpoint_dir = cli.get_string("checkpoint-dir");
  config.checkpoint_every =
      static_cast<std::size_t>(cli.get_int("checkpoint-every"));

  serve::CampaignServer server(config);
  if (cli.get_flag("resume")) {
    const std::size_t restored = server.restore_from_dir();
    std::printf("mwr_served: restored %zu campaign(s) from %s\n", restored,
                config.checkpoint_dir.c_str());
  }

  serve::ControlListener listener(socket_path);
  std::printf("mwr_served: listening on %s (max %zu campaigns, quantum %zu)\n",
              socket_path.c_str(), config.max_resident, config.quantum);
  std::fflush(stdout);

  serve::ControlLoopOptions options;
  options.idle_exit_seconds = cli.get_double("idle-exit-seconds");
  options.stall_after_epochs =
      static_cast<std::uint64_t>(cli.get_int("stall-after-epochs"));
  serve::ControlLoop(server, listener, options).run();

  std::printf(
      "mwr_served: exiting — %zu completed, %llu epochs, %llu starved\n",
      server.completed(), static_cast<unsigned long long>(server.epochs()),
      static_cast<unsigned long long>(server.starved_epochs()));

  util::write_metrics_if_requested(cli);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mwr_served: fatal: %s\n", error.what());
    return 1;
  }
}
