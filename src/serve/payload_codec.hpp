// Typed little-endian fields over a WireFrame's byte payload.
//
// The control plane and the checkpoint files lay their fields out in the
// `bytes` of ordinary MWRW frames (one codec, one fuzz surface, one
// version field), each at its declared width:
//
//   u8 / u32 / u64 / f64 — little-endian, sizeof(T) bytes (doubles are
//                          bit-exact, so strategy weights round-trip);
//   bool                 — one byte, 0 or 1;
//   str                  — u32 length, then the raw bytes.
//
// Readers bounds-check every access and throw std::runtime_error on
// truncated or malformed payloads — control frames arrive from other
// processes and checkpoint files from disk, neither trusted to be
// well-formed.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "parallel/transport/wire.hpp"

namespace mwr::serve {

class PayloadWriter {
 public:
  void u8(std::uint8_t v) { parallel::transport::put(out_, v); }
  void u32(std::uint32_t v) { parallel::transport::put(out_, v); }
  void u64(std::uint64_t v) { parallel::transport::put(out_, v); }
  void f64(double v) { parallel::transport::put(out_, v); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// An element or byte count as a u32.  Throws std::length_error past
  /// what a u32 can count.
  void count(std::size_t n) {
    if (n > std::numeric_limits<std::uint32_t>::max())
      throw std::length_error("serve payload: count exceeds u32");
    u32(static_cast<std::uint32_t>(n));
  }

  void str(const std::string& s) {
    count(s.size());
    out_.insert(out_.end(), s.begin(), s.end());
  }

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

class PayloadReader {
 public:
  explicit PayloadReader(std::span<const std::uint8_t> in) : in_(in) {}

  [[nodiscard]] std::uint8_t u8() { return take<std::uint8_t>("u8"); }
  [[nodiscard]] std::uint32_t u32() { return take<std::uint32_t>("u32"); }
  [[nodiscard]] std::uint64_t u64() { return take<std::uint64_t>("u64"); }
  [[nodiscard]] double f64() { return take<double>("f64"); }

  [[nodiscard]] bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) throw std::runtime_error("serve payload: malformed bool");
    return v == 1;
  }

  [[nodiscard]] std::string str() {
    const std::size_t n = count(1);
    std::string s(reinterpret_cast<const char*>(in_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  /// A u32 element count, checked against the bytes left so a hostile
  /// count cannot drive a huge allocation: `min_item_bytes` is the
  /// smallest encoding of one element.
  [[nodiscard]] std::size_t count(std::size_t min_item_bytes) {
    const std::uint32_t n = u32();
    if (n > remaining() / min_item_bytes)
      throw std::runtime_error("serve payload: truncated (count)");
    return n;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return in_.size() - pos_;
  }
  [[nodiscard]] bool done() const noexcept { return pos_ == in_.size(); }

 private:
  template <typename T>
  T take(const char* what) {
    if (remaining() < sizeof(T))
      throw std::runtime_error(std::string("serve payload: truncated (") +
                               what + ")");
    const std::uint8_t* p = in_.data() + pos_;
    pos_ += sizeof(T);
    return parallel::transport::get<T>(p);
  }

  std::span<const std::uint8_t> in_;
  std::size_t pos_ = 0;
};

}  // namespace mwr::serve
