// Outside-in tracing for the traced runs: the bench records spans around
// its calls into each layer's public functions and sums per-layer time.
//
// Spans (name, start, end, parent, campaign/replication id) are kept in
// memory up to a fixed capacity and written at exit as Chrome trace-event
// JSON, which Perfetto and chrome://tracing load.  Per-unit timings do not
// become spans; they accumulate in Layer counters, so memory stays bounded
// however long the run.  All spans are recorded by the bench's main thread.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace e2e {

/// Self time and unit count of one layer, accumulated across calls.
struct Layer {
  std::int64_t ns = 0;
  std::uint64_t units = 0;

  void add(std::int64_t elapsed_ns, std::uint64_t n = 1) noexcept {
    ns += elapsed_ns;
    units += n;
  }
  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(ns) * 1e-9;
  }
  /// Mean microseconds per unit (0 when no units ran).
  [[nodiscard]] double us_per_unit() const noexcept {
    return units == 0 ? 0.0 : static_cast<double>(ns) * 1e-3 /
                                  static_cast<double>(units);
  }
};

class Tracer {
 public:
  static constexpr std::uint32_t kNone = ~0u;

  explicit Tracer(std::size_t capacity = std::size_t{1} << 16);

  /// Opens a span on the current lane; returns kNone once capacity is
  /// reached (the span is counted as dropped).
  std::uint32_t open(const char* name, std::uint32_t parent = kNone,
                     std::uint64_t id = 0);
  void close(std::uint32_t span) noexcept;
  /// Records a span whose name is known only after it ended.
  void record(const char* name, std::uint32_t parent, std::uint64_t id,
              std::int64_t start_ns, std::int64_t end_ns);

  /// Lanes become Chrome "threads", separating e.g. the wire client from
  /// the in-process replay.
  void set_lane(int lane) noexcept { lane_ = lane; }

  void write_chrome(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint32_t parent;
    int lane;
    std::uint64_t id;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<Span> spans_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  std::int64_t origin_ns_;
  int lane_ = 1;
};

/// Scoped span; a null tracer records nothing.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name,
            std::uint32_t parent = Tracer::kNone, std::uint64_t id = 0)
      : tracer_(tracer),
        span_(tracer ? tracer->open(name, parent, id) : Tracer::kNone) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->close(span_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] std::uint32_t index() const noexcept { return span_; }

 private:
  Tracer* tracer_;
  std::uint32_t span_;
};

}  // namespace e2e
