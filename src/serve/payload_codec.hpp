// Typed accessors over a WireFrame's double payload.
//
// The MWRW wire format carries exactly one payload shape — a vector of
// IEEE-754 doubles — because that is what substrate messages are.  The
// campaign-server control plane and the checkpoint files reuse the same
// frames (one codec, one fuzz surface, one version field), so every
// richer field they need is spelled in doubles:
//
//   f64  — as is (bit-exact; strategy weights round-trip unchanged);
//   u64  — two u32 halves, low then high (each half is exactly
//          representable; the full 64-bit range round-trips);
//   str  — u64 length, then one code unit per double.
//
// Readers bounds-check every access and throw std::runtime_error on
// truncated or malformed payloads — control frames arrive from other
// processes and checkpoint files from disk, neither trusted to be
// well-formed.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace mwr::serve {

class PayloadWriter {
 public:
  void f64(double v) { out_.push_back(v); }

  void u64(std::uint64_t v) {
    out_.push_back(static_cast<double>(v & 0xffffffffull));
    out_.push_back(static_cast<double>(v >> 32));
  }

  void boolean(bool v) { out_.push_back(v ? 1.0 : 0.0); }

  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s)
      out_.push_back(static_cast<double>(static_cast<unsigned char>(c)));
  }

  [[nodiscard]] std::vector<double> take() { return std::move(out_); }

 private:
  std::vector<double> out_;
};

class PayloadReader {
 public:
  explicit PayloadReader(std::span<const double> in) : in_(in) {}

  [[nodiscard]] double f64() {
    if (pos_ >= in_.size())
      throw std::runtime_error("serve payload: truncated (f64)");
    return in_[pos_++];
  }

  [[nodiscard]] std::uint64_t u64() {
    const double lo = f64();
    const double hi = f64();
    if (!is_integer_in(lo, 4294967295.0) || !is_integer_in(hi, 4294967295.0))
      throw std::runtime_error("serve payload: malformed u64 halves");
    return static_cast<std::uint64_t>(lo) |
           (static_cast<std::uint64_t>(hi) << 32);
  }

  [[nodiscard]] bool boolean() { return f64() != 0.0; }

  [[nodiscard]] std::string str() {
    const std::uint64_t n = u64();
    if (n > remaining())
      throw std::runtime_error("serve payload: truncated (str)");
    std::string s;
    s.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      const double c = f64();
      if (!is_integer_in(c, 255.0))
        throw std::runtime_error("serve payload: malformed str code unit");
      s.push_back(static_cast<char>(static_cast<unsigned char>(c)));
    }
    return s;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return in_.size() - pos_;
  }
  [[nodiscard]] bool done() const noexcept { return pos_ == in_.size(); }

 private:
  // True when v is an integer in [0, max].  The range test comes first and
  // fails for NaN, so the integer cast only ever sees an in-range value
  // (casting NaN or an out-of-range double is undefined behaviour).
  static bool is_integer_in(double v, double max) noexcept {
    return v >= 0.0 && v <= max &&
           v == static_cast<double>(static_cast<std::uint64_t>(v));
  }

  std::span<const double> in_;
  std::size_t pos_ = 0;
};

}  // namespace mwr::serve
