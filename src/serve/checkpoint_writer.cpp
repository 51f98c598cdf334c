#include "serve/checkpoint_writer.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "serve/checkpoint.hpp"
#include "util/timer.hpp"

namespace mwr::serve {

CheckpointWriter::CheckpointWriter() : thread_([this] { writer_loop(); }) {}

CheckpointWriter::~CheckpointWriter() {
  {
    util::MutexLock lock(mutex_);
    stop_ = true;
    work_cv_.notify_all();
  }
  thread_.join();
}

void CheckpointWriter::enqueue_write(std::uint64_t id, std::string path,
                                     std::vector<std::uint8_t> bytes) {
  util::MutexLock lock(mutex_);
  auto [it, fresh] = pending_.try_emplace(id);
  if (!fresh) ++stats_.coalesced;  // latest-wins: replace in place.
  it->second.remove = false;
  it->second.path = std::move(path);
  it->second.bytes = std::move(bytes);
  if (fresh) fifo_.push_back(id);
  work_cv_.notify_one();
}

void CheckpointWriter::enqueue_remove(std::uint64_t id, std::string path) {
  util::MutexLock lock(mutex_);
  auto [it, fresh] = pending_.try_emplace(id);
  if (!fresh) ++stats_.coalesced;  // drops the campaign's pending write.
  it->second.remove = true;
  it->second.path = std::move(path);
  it->second.bytes.clear();
  if (fresh) fifo_.push_back(id);
  work_cv_.notify_one();
}

bool CheckpointWriter::has_pending(std::uint64_t id) const {
  util::MutexLock lock(mutex_);
  return pending_.count(id) != 0;
}

void CheckpointWriter::flush() {
  util::MutexLock lock(mutex_);
  while (!fifo_.empty() || in_flight_) idle_cv_.wait(mutex_);
  if (failures_since_flush_ != 0) {
    const std::string error = last_error_;
    failures_since_flush_ = 0;
    throw std::runtime_error("checkpoint writer: " + error);
  }
}

CheckpointWriter::Stats CheckpointWriter::stats() const {
  util::MutexLock lock(mutex_);
  return stats_;
}

void CheckpointWriter::writer_loop() {
  util::MutexLock lock(mutex_);
  for (;;) {
    while (fifo_.empty() && !stop_) work_cv_.wait(mutex_);
    if (fifo_.empty() && stop_) return;  // drained, then shut down.
    const std::uint64_t id = fifo_.front();
    fifo_.pop_front();
    const auto it = pending_.find(id);
    Op op = std::move(it->second);
    pending_.erase(it);
    in_flight_ = true;
    lock.unlock();

    const util::WallTimer timer;
    bool failed = false;
    std::string error;
    std::size_t written = 0;
    try {
      if (op.remove) {
        // Best-effort unlink (the file may never have been written).
        std::remove(op.path.c_str());
      } else {
        written = write_checkpoint_bytes(op.bytes, op.path);
      }
    } catch (const std::exception& e) {
      failed = true;
      error = e.what();
    }
    const double seconds = timer.elapsed_seconds();

    lock.lock();
    in_flight_ = false;
    stats_.writer_seconds += seconds;
    if (failed) {
      ++stats_.failures;
      ++failures_since_flush_;
      last_error_ = error;
    } else if (op.remove) {
      ++stats_.removes;
    } else {
      ++stats_.writes;
      stats_.bytes += written;
    }
    if (fifo_.empty()) idle_cv_.notify_all();
  }
}

}  // namespace mwr::serve
