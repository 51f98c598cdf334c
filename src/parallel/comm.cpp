#include "parallel/comm.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <thread>

#include "obs/registry.hpp"
#include "parallel/superstep.hpp"
#include "parallel/transport/transport.hpp"
#include "util/sync.hpp"

namespace mwr::parallel {

namespace {
// Communicator telemetry across every CommWorld in the process.  Tracked
// sends are the algorithm's own messages (the congestion analysis of
// Table I); untracked sends are harness bookkeeping and reported
// separately so the two never blur.
struct CommMetrics {
  obs::Counter& messages_sent;
  obs::Counter& messages_sent_untracked;
  obs::Counter& congestion_cycles;
  obs::Gauge& congestion_max_per_cycle;

  CommMetrics()
      : messages_sent(
            obs::MetricsRegistry::global().counter("comm.messages_sent")),
        messages_sent_untracked(obs::MetricsRegistry::global().counter(
            "comm.messages_sent_untracked")),
        congestion_cycles(
            obs::MetricsRegistry::global().counter("comm.congestion_cycles")),
        congestion_max_per_cycle(obs::MetricsRegistry::global().gauge(
            "comm.congestion_max_per_cycle")) {}
};

CommMetrics& comm_metrics() {
  static CommMetrics metrics;
  return metrics;
}
}  // namespace

std::size_t WorldLayout::block_begin(std::size_t global_size,
                                     std::size_t processes,
                                     std::size_t process) noexcept {
  const std::size_t base = global_size / processes;
  const std::size_t rem = global_size % processes;
  return process * base + std::min(process, rem);
}

std::size_t WorldLayout::block_count(std::size_t global_size,
                                     std::size_t processes,
                                     std::size_t process) noexcept {
  const std::size_t base = global_size / processes;
  const std::size_t rem = global_size % processes;
  return base + (process < rem ? 1 : 0);
}

std::size_t WorldLayout::owner_of(std::size_t global_size,
                                  std::size_t processes,
                                  std::size_t rank) noexcept {
  const std::size_t base = global_size / processes;
  const std::size_t rem = global_size % processes;
  const std::size_t in_big_blocks = rem * (base + 1);
  if (rank < in_big_blocks) return rank / (base + 1);
  if (base == 0) return processes - 1;  // only reachable for out-of-range rank
  return rem + (rank - in_big_blocks) / base;
}

int Comm::size() const noexcept { return static_cast<int>(world_->size()); }

void Comm::send(int destination, int tag, PayloadVec payload) {
  deliver(destination, tag, std::move(payload), /*tracked=*/true);
}

void Comm::send_untracked(int destination, int tag, PayloadVec payload) {
  deliver(destination, tag, std::move(payload), /*tracked=*/false);
}

void Comm::deliver(int destination, int tag, PayloadVec payload,
                   bool tracked) {
  const auto dst = static_cast<std::size_t>(destination);
  if (dst >= world_->size()) throw std::out_of_range("send: bad destination");
  CommMetrics& metrics = comm_metrics();
  (tracked ? metrics.messages_sent : metrics.messages_sent_untracked).add(1);
  if (world_->multiprocess()) {
    const WorldLayout& layout = world_->layout_;
    const std::size_t owner =
        WorldLayout::owner_of(layout.global_size, layout.processes, dst);
    if (owner != layout.process_index) {
      // Remote rank: congestion is recorded by the destination process's
      // drain thread when a tracked frame is delivered — same count, same
      // cycle (the barrier-close marker round fences delivery).
      world_->endpoint_->send(
          owner, transport::WireFrame::message(rank_, destination, tag,
                                               std::move(payload).to_vector(),
                                               tracked));
      return;
    }
  }
  const std::size_t local = world_->local_index(destination);
  if (tracked) world_->tracker_.record(local);
  world_->mailboxes_[local].push(Message{rank_, tag, std::move(payload)});
}

Message Comm::recv(int source, int tag) {
  // Flush-before-blocking discipline: anything this process buffered is
  // pushed into the fabric before this rank can block on a reply that may
  // depend on it.
  if (world_->multiprocess()) world_->endpoint_->flush();
  return world_->mailboxes_[world_->local_index(rank_)].recv(source, tag);
}

std::optional<Message> Comm::try_recv(int source, int tag) {
  if (world_->multiprocess()) world_->endpoint_->flush();
  return world_->mailboxes_[world_->local_index(rank_)].try_recv(source, tag);
}

void Comm::barrier() {
  if (!world_->multiprocess()) {
    world_->barrier_.arrive_and_wait();
    return;
  }
  // Local barrier whose completion extends the synchronization across
  // processes: the last local arriver flushes every buffered frame and
  // exchanges one marker round with the peer processes.
  world_->barrier_.arrive_and_wait(
      [w = world_] { w->exchange_barrier_round(); });
  world_->throw_if_aborted();
}

void Comm::barrier_close_cycle() {
  // The last arriver closes the cycle inside the barrier's completion slot:
  // every rank's sends of the cycle are already recorded (they arrived),
  // none can send for the next one (none is released), so the captured
  // per-cycle maximum is exactly that of a barrier / close / barrier
  // bracket — at one synchronization instead of two.
  CommWorld* w = world_;
  if (!w->multiprocess()) {
    w->barrier_.arrive_and_wait([w] { w->close_local_cycle(); });
    return;
  }
  w->barrier_.arrive_and_wait([w] { w->exchange_cycle_close(); });
  w->throw_if_aborted();
}

std::vector<double> Comm::broadcast(int root, std::vector<double> payload) {
  // Checked on every rank: non-roots only recv(root), so a bad root would
  // otherwise leave them blocked on a sender that does not exist.
  if (root < 0 || root >= size())
    throw std::out_of_range("broadcast: bad root");
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r) {
      if (r != root) send(r, kTagBroadcast, payload);
    }
    return payload;
  }
  return recv(root, kTagBroadcast).payload;
}

std::vector<std::vector<double>> Comm::gather(int root,
                                              std::vector<double> payload) {
  if (rank_ != root) {
    send(root, kTagGather, std::move(payload));
    return {};
  }
  std::vector<std::vector<double>> all(world_->size());
  all[static_cast<std::size_t>(root)] = std::move(payload);
  for (int r = 0; r < size(); ++r) {
    if (r == root) continue;
    all[static_cast<std::size_t>(r)] = recv(r, kTagGather).payload;
  }
  return all;
}

std::vector<double> Comm::allreduce_sum(std::vector<double> payload) {
  // Gather-to-0 then broadcast: O(n) congestion at the root, exactly the
  // centralized communication pattern the paper charges Standard MWU for.
  const std::size_t width = payload.size();
  if (rank_ != 0) {
    send(0, kTagAllreduce, std::move(payload));
    std::vector<double> reduced = recv(0, kTagAllreduce).payload;
    if (reduced.size() != width)
      throw std::invalid_argument("allreduce_sum: mismatched payload widths");
    return reduced;
  }
  std::vector<double> sum = std::move(payload);
  for (int r = 1; r < size(); ++r) {
    const auto m = recv(r, kTagAllreduce);
    if (m.payload.size() != sum.size())
      throw std::invalid_argument("allreduce_sum: mismatched payload widths");
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += m.payload[i];
  }
  for (int r = 1; r < size(); ++r) send(r, kTagAllreduce, sum);
  return sum;
}

std::vector<double> Comm::allreduce_sum_tree(std::vector<double> payload) {
  return allreduce_tree_impl(std::move(payload), /*tracked=*/true);
}

std::vector<double> Comm::allreduce_sum_tree_untracked(
    std::vector<double> payload) {
  return allreduce_tree_impl(std::move(payload), /*tracked=*/false);
}

std::vector<double> Comm::allreduce_tree_impl(std::vector<double> payload,
                                              bool tracked) {
  // Binomial tree rooted at 0.  Reduce phase: at round r (mask = 1 << r), a
  // rank whose bit r is set sends its partial sum to rank ^ mask and goes
  // passive; otherwise it receives from rank + mask if that peer exists.
  const auto n = static_cast<int>(world_->size());
  std::vector<double> sum = std::move(payload);
  for (int mask = 1; mask < n; mask <<= 1) {
    if (rank_ & mask) {
      deliver(rank_ ^ mask, kTagTreeReduce, std::move(sum), tracked);
      break;  // passive for the rest of the reduce phase
    }
    const int peer = rank_ | mask;
    if (peer < n) {
      const auto m = recv(peer, kTagTreeReduce);
      if (m.payload.size() != sum.size())
        throw std::invalid_argument(
            "allreduce_sum_tree: mismatched payload widths");
      for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += m.payload[i];
    }
  }
  // Broadcast phase, highest mask first: at round `mask` the holders are
  // exactly the ranks divisible by 2*mask, and each forwards to rank+mask.
  int top = 1;
  while ((top << 1) < n) top <<= 1;
  for (int mask = top; mask >= 1; mask >>= 1) {
    const int period = 2 * mask;
    if (rank_ % period == 0) {
      const int peer = rank_ + mask;
      if (peer < n) deliver(peer, kTagTreeBcast, sum, tracked);
    } else if (rank_ % period == mask) {
      sum = recv(rank_ - mask, kTagTreeBcast).payload;
    }
  }
  return sum;
}

CommWorld::CommWorld(std::size_t size, RunPolicy policy)
    : CommWorld(WorldLayout{size, 1, 0}, nullptr, policy) {}

CommWorld::CommWorld(const WorldLayout& layout,
                     transport::Endpoint* endpoint, RunPolicy policy)
    : policy_(policy),
      layout_(layout),
      endpoint_(endpoint),
      mailboxes_(layout.local_count()),
      barrier_(layout.local_count()),
      tracker_(layout.local_count()) {
  if (layout_.global_size == 0)
    throw std::invalid_argument("CommWorld needs >= 1 rank");
  if (layout_.processes == 0 || layout_.process_index >= layout_.processes)
    throw std::invalid_argument("CommWorld: bad process layout");
  if (endpoint_ == nullptr) {
    if (layout_.processes != 1)
      throw std::invalid_argument(
          "CommWorld: a multi-process layout needs a transport endpoint");
    return;
  }
  if (endpoint_->process_count() != layout_.processes ||
      endpoint_->process_index() != layout_.process_index)
    throw std::invalid_argument(
        "CommWorld: endpoint and layout disagree on the process grid");
  // Drain threads feed these mailboxes from outside the fiber world: the
  // engine's deadlock detector must not fire while a rank waits on one.
  for (Mailbox& mailbox : mailboxes_) mailbox.mark_external_feed();
  util::MutexLock lock(exchange_mutex_);
  markers_from_.assign(layout_.processes, 0);
  cycle_max_from_.assign(layout_.processes, {});
}

CommWorld::~CommWorld() {
  // run() joins the drain threads on every path; this is the backstop for
  // a world destroyed without (or mid-) run.
  if (!drains_.empty()) {
    note_abort("CommWorld destroyed while draining");
    for (auto& t : drains_) {
      if (t.joinable()) t.join();
    }
  }
}

void CommWorld::run(const std::function<void(Comm&)>& body) {
  if (multiprocess()) {
    run_multiprocess(body);
    return;
  }
  if (policy_.mode == RunPolicy::Mode::kThreadPerRank) {
    run_thread_per_rank(body);
  } else {
    run_superstep(body);
  }
}

void CommWorld::run_multiprocess(const std::function<void(Comm&)>& body) {
  drains_.reserve(layout_.processes - 1);
  for (std::size_t p = 0; p < layout_.processes; ++p) {
    if (p == layout_.process_index) continue;
    drains_.emplace_back([this, p] { drain_peer(p); });
  }
  // Always the superstep engine: its blocked-world unwinding is what turns
  // a poisoned mailbox or a dead peer into exception propagation for every
  // local rank instead of a hang.
  std::exception_ptr first_error;
  try {
    run_superstep(body);
  } catch (...) {
    first_error = std::current_exception();
  }
  if (first_error) {
    std::string reason = "rank body failed";
    try {
      std::rethrow_exception(first_error);
    } catch (const std::exception& e) {
      reason = e.what();
    } catch (...) {
    }
    note_abort(reason);
  } else {
    try {
      for (std::size_t p = 0; p < layout_.processes; ++p) {
        if (p == layout_.process_index) continue;
        endpoint_->send(p, transport::WireFrame::control(
                               transport::FrameKind::kShutdown, 0));
      }
      endpoint_->flush();
    } catch (const std::exception& e) {
      note_abort(e.what());
    }
  }
  // Each drain exits on its peer's kShutdown (orderly) or on the abort it
  // just propagated — so joining here means "the whole world finished",
  // not just this process's block.
  for (auto& t : drains_) t.join();
  drains_.clear();
  if (first_error) std::rethrow_exception(first_error);
  throw_if_aborted();
}

void CommWorld::drain_peer(std::size_t peer) {
  transport::WireFrame frame;
  try {
    while (endpoint_->recv(peer, frame)) {
      switch (frame.kind) {
        case transport::FrameKind::kMessage: {
          const std::size_t local = local_index(frame.dest);
          if (local >= mailboxes_.size())
            throw transport::TransportError("misrouted frame for rank " +
                                            std::to_string(frame.dest));
          if (frame.tracked) tracker_.record(local);
          mailboxes_[local].push(
              Message{frame.source, frame.tag, std::move(frame.payload)});
          break;
        }
        case transport::FrameKind::kBarrierMarker: {
          util::MutexLock lock(exchange_mutex_);
          ++markers_from_[peer];
          if (frame.value != markers_from_[peer])
            throw transport::TransportError(
                "barrier phase skew with process " + std::to_string(peer));
          exchange_cv_.notify_all();
          break;
        }
        case transport::FrameKind::kCycleMax: {
          util::MutexLock lock(exchange_mutex_);
          cycle_max_from_[peer].push_back(frame.value);
          exchange_cv_.notify_all();
          break;
        }
        default:
          // kHello / kShutdown never surface from Endpoint::recv.
          throw transport::TransportError("unexpected frame kind from peer " +
                                          std::to_string(peer));
      }
    }
  } catch (const std::exception& e) {
    note_abort(e.what());
  }
}

void CommWorld::note_abort(const std::string& reason) {
  {
    util::MutexLock lock(exchange_mutex_);
    if (!aborted_.load(std::memory_order_relaxed)) {
      abort_reason_ = reason;
      aborted_.store(true, std::memory_order_release);
    }
    exchange_cv_.notify_all();
  }
  if (endpoint_ != nullptr) endpoint_->abort(reason);
  for (auto& mailbox : mailboxes_) mailbox.poison(reason);
}

void CommWorld::throw_if_aborted() const {
  if (!aborted_.load(std::memory_order_acquire)) return;
  util::MutexLock lock(exchange_mutex_);
  throw transport::TransportError(abort_reason_);
}

bool CommWorld::marker_round() {
  std::uint64_t phase = 0;
  {
    util::MutexLock lock(exchange_mutex_);
    phase = ++marker_phase_;
  }
  for (std::size_t p = 0; p < layout_.processes; ++p) {
    if (p == layout_.process_index) continue;
    endpoint_->send(p, transport::WireFrame::control(
                           transport::FrameKind::kBarrierMarker, phase));
  }
  // This flush also carries every substrate message local ranks buffered
  // before arriving at the barrier — the marker lands behind them in each
  // per-peer FIFO, making it a delivery fence.
  endpoint_->flush();
  util::MutexLock lock(exchange_mutex_);
  for (std::size_t p = 0; p < layout_.processes; ++p) {
    if (p == layout_.process_index) continue;
    while (markers_from_[p] < phase) {
      if (aborted_.load(std::memory_order_acquire)) return false;
      exchange_cv_.wait(exchange_mutex_);
    }
  }
  return !aborted_.load(std::memory_order_acquire);
}

void CommWorld::exchange_barrier_round() noexcept {
  try {
    (void)marker_round();
  } catch (const std::exception& e) {
    note_abort(e.what());
  }
}

void CommWorld::close_local_cycle() {
  CommMetrics& metrics = comm_metrics();
  metrics.congestion_max_per_cycle.record_max(
      static_cast<double>(tracker_.current_max()));
  metrics.congestion_cycles.add(1);
  tracker_.end_cycle();
}

void CommWorld::exchange_cycle_close() noexcept {
  try {
    // Round 1: after this, every cycle message world-wide sits in its
    // destination process's tracker (markers fence delivery per channel).
    if (!marker_round()) return;
    const std::uint64_t local_max = tracker_.current_max();
    std::uint64_t global_max = local_max;
    for (std::size_t p = 0; p < layout_.processes; ++p) {
      if (p == layout_.process_index) continue;
      endpoint_->send(p, transport::WireFrame::control(
                             transport::FrameKind::kCycleMax, local_max));
    }
    endpoint_->flush();
    {
      util::MutexLock lock(exchange_mutex_);
      for (std::size_t p = 0; p < layout_.processes; ++p) {
        if (p == layout_.process_index) continue;
        while (cycle_max_from_[p].empty()) {
          if (aborted_.load(std::memory_order_acquire)) return;
          exchange_cv_.wait(exchange_mutex_);
        }
        global_max = std::max(global_max, cycle_max_from_[p].front());
        cycle_max_from_[p].pop_front();
      }
    }
    CommMetrics& metrics = comm_metrics();
    metrics.congestion_max_per_cycle.record_max(
        static_cast<double>(global_max));
    metrics.congestion_cycles.add(1);
    tracker_.end_cycle(global_max);
    // Round 2: no process releases its ranks into the next cycle until
    // every process finished recording this one — otherwise an early
    // peer's next-cycle messages could leak into our still-open counters.
    (void)marker_round();
  } catch (const std::exception& e) {
    note_abort(e.what());
  }
}

void CommWorld::run_thread_per_rank(const std::function<void(Comm&)>& body) {
  const std::size_t local = layout_.local_count();
  const std::size_t begin = layout_.local_begin();
  std::vector<std::thread> threads;
  threads.reserve(local);
  std::exception_ptr first_error;
  util::Mutex error_mutex;
  for (std::size_t r = 0; r < local; ++r) {
    threads.emplace_back([this, r, begin, &body, &first_error, &error_mutex] {
      Comm comm(*this, static_cast<int>(begin + r));
      try {
        body(comm);
      } catch (...) {
        util::MutexLock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

void CommWorld::run_superstep(const std::function<void(Comm&)>& body) {
  SuperstepEngine engine(layout_.local_count(),
                         SuperstepEngine::Config{policy_.workers});
  const std::size_t begin = layout_.local_begin();
  engine.run([this, begin, &body](int rank) {
    Comm comm(*this, static_cast<int>(begin) + rank);
    body(comm);
  });
}

}  // namespace mwr::parallel
