#include "trace.hpp"

#include <fstream>
#include <stdexcept>

namespace e2e {

Tracer::Tracer(std::size_t capacity)
    : capacity_(capacity), origin_ns_(now_ns()) {
  spans_.reserve(capacity_);
}

std::uint32_t Tracer::open(const char* name, std::uint32_t parent,
                           std::uint64_t id) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return kNone;
  }
  const std::int64_t t = now_ns();
  spans_.push_back({name, parent, lane_, id, t, t});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Tracer::close(std::uint32_t span) noexcept {
  if (span != kNone) spans_[span].end_ns = now_ns();
}

void Tracer::record(const char* name, std::uint32_t parent, std::uint64_t id,
                    std::int64_t start_ns, std::int64_t end_ns) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back({name, parent, lane_, id, start_ns, end_ns});
}

void Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace output " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
        << ",\"ts\":" << static_cast<double>(s.start_ns - origin_ns_) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ",\"args\":{\"span\":" << i << ",\"id\":" << s.id;
    if (s.parent != kNone) out << ",\"parent\":" << s.parent;
    out << "}}";
  }
  out << "\n],\"otherData\":{\"dropped_spans\":" << dropped_ << "}}\n";
  if (!out) throw std::runtime_error("failed writing trace output " + path);
}

}  // namespace e2e
