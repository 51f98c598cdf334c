#include "parallel/mailbox.hpp"

#include "obs/registry.hpp"

namespace mwr::parallel {

namespace {
// Receive-side telemetry across every mailbox in the process: deliveries
// (successful matched takes) and the deepest backlog any single mailbox
// accumulated — the observable face of receiver congestion.  The payload
// counters split enqueued messages by representation: inline payloads are
// exactly the messages that would have paid a heap allocation under the
// old vector-payload envelope (empty payloads never allocated and still
// don't), and spilled payloads pay a per-message heap vector.
struct MailboxMetrics {
  obs::Counter& messages_delivered;
  obs::Gauge& queue_depth_hwm;
  obs::Counter& payload_inline_msgs;
  obs::Counter& payload_spilled_msgs;

  MailboxMetrics()
      : messages_delivered(obs::MetricsRegistry::global().counter(
            "mailbox.messages_delivered")),
        queue_depth_hwm(obs::MetricsRegistry::global().gauge(
            "mailbox.queue_depth_hwm")),
        payload_inline_msgs(obs::MetricsRegistry::global().counter(
            "mailbox.payload_inline_msgs")),
        payload_spilled_msgs(obs::MetricsRegistry::global().counter(
            "mailbox.payload_spilled_msgs")) {}
};

MailboxMetrics& mailbox_metrics() {
  static MailboxMetrics metrics;
  return metrics;
}
}  // namespace

void Mailbox::push(Message message) {
  MailboxMetrics& metrics = mailbox_metrics();
  if (!message.payload.empty()) {
    if (message.payload.spilled()) {
      metrics.payload_spilled_msgs.add(1);
    } else {
      metrics.payload_inline_msgs.add(1);
    }
  }
  std::size_t depth = 0;
  CoopToken waiter{};
  bool wake_fiber = false;
  {
    util::MutexLock lock(mutex_);
    queue_.push_back(std::move(message));
    depth = queue_.size();
    if (has_waiter_) {
      waiter = waiter_;
      has_waiter_ = false;
      wake_fiber = true;
    }
  }
  metrics.queue_depth_hwm.record_max(static_cast<double>(depth));
  if (wake_fiber) waiter.wake();
  cv_.notify_all();
}

void Mailbox::poison(std::string reason) {
  CoopToken waiter{};
  bool wake_fiber = false;
  {
    util::MutexLock lock(mutex_);
    if (poisoned_) return;
    poisoned_ = true;
    poison_reason_ = std::move(reason);
    if (has_waiter_) {
      waiter = waiter_;
      has_waiter_ = false;
      wake_fiber = true;
    }
  }
  if (wake_fiber) waiter.wake();
  cv_.notify_all();
}

void Mailbox::throw_if_poisoned_locked() const {
  if (poisoned_)
    throw std::runtime_error("mailbox poisoned: " + poison_reason_);
}

std::optional<Message> Mailbox::take_locked(int source, int tag) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    const bool source_ok = source == kAnySource || it->source == source;
    const bool tag_ok = tag == kAnyTag || it->tag == tag;
    if (source_ok && tag_ok) {
      Message m = std::move(*it);
      queue_.erase(it);
      return m;
    }
  }
  return std::nullopt;
}

Message Mailbox::recv(int source, int tag) {
  if (const CoopToken* coop = coop_current()) {
    // Cooperative path: the owning rank runs as a fiber.  Register as the
    // mailbox's waiter under the lock (so a concurrent push cannot miss
    // us), release the lock completely, then suspend the fiber across the
    // coop-scheduler seam; wakes may be spurious, so re-check.
    for (;;) {
      {
        util::MutexLock lock(mutex_);
        if (auto m = take_locked(source, tag)) {
          lock.unlock();
          mailbox_metrics().messages_delivered.add(1);
          return std::move(*m);
        }
        throw_if_poisoned_locked();
        waiter_ = *coop;
        has_waiter_ = true;
      }
      if (external_feed_) {
        // The wake may come from a transport drain thread: bracket the
        // suspension so the engine knows the world can still progress.
        // suspend_current can throw (SuperstepAbort unwind) — balance the
        // count on that path too.
        coop->scheduler->note_external_wait(+1);
        try {
          coop->scheduler->suspend_current();
        } catch (...) {
          coop->scheduler->note_external_wait(-1);
          throw;
        }
        coop->scheduler->note_external_wait(-1);
      } else {
        coop->scheduler->suspend_current();
      }
    }
  }
  std::optional<Message> taken;
  {
    util::MutexLock lock(mutex_);
    for (;;) {
      taken = take_locked(source, tag);
      if (taken) break;
      throw_if_poisoned_locked();
      cv_.wait(mutex_);
    }
  }
  mailbox_metrics().messages_delivered.add(1);
  return std::move(*taken);
}

std::optional<Message> Mailbox::try_recv(int source, int tag) {
  std::optional<Message> taken;
  {
    util::MutexLock lock(mutex_);
    taken = take_locked(source, tag);
    if (!taken) throw_if_poisoned_locked();
  }
  if (taken) mailbox_metrics().messages_delivered.add(1);
  return taken;
}

std::size_t Mailbox::pending() const {
  util::MutexLock lock(mutex_);
  return queue_.size();
}

}  // namespace mwr::parallel
