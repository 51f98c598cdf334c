#include "parallel/transport/wire.hpp"

#include "util/fnv.hpp"

namespace mwr::parallel::transport {

namespace {
// Frames above this are protocol errors, not big payloads: the largest
// legitimate payload is one collective contribution (num_options doubles)
// or one outcome document, orders of magnitude below this.
constexpr std::size_t kMaxFrameBytes = 64u << 20;

/// Bytes per counted payload unit: a double for kMessage, a byte else.
constexpr std::size_t unit_bytes(FrameKind kind) noexcept {
  return kind == FrameKind::kMessage ? 8 : 1;
}

std::size_t payload_count(const WireFrame& frame) noexcept {
  return frame.kind == FrameKind::kMessage ? frame.payload.size()
                                           : frame.bytes.size();
}
}  // namespace

std::size_t encoded_size(const WireFrame& frame) noexcept {
  return 4 + kFrameHeaderBytes + unit_bytes(frame.kind) * payload_count(frame);
}

void encode_frame(const WireFrame& frame, std::vector<std::uint8_t>& out) {
  if (frame.kind == FrameKind::kMessage ? !frame.bytes.empty()
                                        : !frame.payload.empty())
    throw std::invalid_argument(
        "encode_frame: kMessage carries doubles, every other kind bytes");
  out.reserve(out.size() + encoded_size(frame));
  const std::size_t count = payload_count(frame);
  put(out, static_cast<std::uint32_t>(kFrameHeaderBytes +
                                      unit_bytes(frame.kind) * count));
  put(out, kWireMagic);
  put(out, kWireVersion);
  put(out, static_cast<std::uint8_t>(frame.kind));
  put(out, static_cast<std::uint8_t>(frame.tracked ? 1 : 0));
  put(out, frame.source);
  put(out, frame.dest);
  put(out, frame.tag);
  put(out, frame.value);
  put(out, static_cast<std::uint32_t>(count));
  if (frame.kind == FrameKind::kMessage) {
    for (const double v : frame.payload) put(out, v);
  } else {
    out.insert(out.end(), frame.bytes.begin(), frame.bytes.end());
  }
}

std::size_t decode_frame(const std::uint8_t* data, std::size_t size,
                         WireFrame& out) {
  if (size < 4) return 0;
  const std::uint8_t* p = data;
  const auto body = get<std::uint32_t>(p);
  if (body < kFrameHeaderBytes || body > kMaxFrameBytes)
    throw WireFormatError("implausible frame length " + std::to_string(body));
  if (size < 4 + static_cast<std::size_t>(body)) return 0;
  const auto magic = get<std::uint32_t>(p);
  if (magic != kWireMagic)
    throw WireFormatError("bad magic " + std::to_string(magic));
  const auto version = get<std::uint16_t>(p);
  if (version != kWireVersion)
    throw WireFormatError("version " + std::to_string(version) +
                          " (expected " + std::to_string(kWireVersion) + ")");
  const auto kind = get<std::uint8_t>(p);
  if (kind > kMaxFrameKind)
    throw WireFormatError("unknown frame kind " + std::to_string(kind));
  out.kind = static_cast<FrameKind>(kind);
  out.tracked = get<std::uint8_t>(p) != 0;
  out.source = get<std::int32_t>(p);
  out.dest = get<std::int32_t>(p);
  out.tag = get<std::int32_t>(p);
  out.value = get<std::uint64_t>(p);
  const auto count = get<std::uint32_t>(p);
  const std::size_t payload_bytes = unit_bytes(out.kind) * count;
  if (kFrameHeaderBytes + payload_bytes != body)
    throw WireFormatError("payload count disagrees with frame length");
  if (out.kind == FrameKind::kMessage) {
    out.payload.resize(count);
    if (count != 0) std::memcpy(out.payload.data(), p, payload_bytes);
    out.bytes.clear();
  } else {
    out.bytes.assign(p, p + payload_bytes);
    out.payload.clear();
  }
  return 4 + static_cast<std::size_t>(body);
}

std::uint64_t geometry_fingerprint(std::size_t global_ranks,
                                   std::size_t processes) noexcept {
  // FNV-1a over the two geometry words plus the wire version, so a HELLO
  // from a world with different shape (or a future incompatible format)
  // is rejected before any payload is trusted.
  std::uint64_t h = util::fnv_fold(util::kFnvOffset, global_ranks);
  h = util::fnv_fold(h, processes);
  return util::fnv_fold(h, kWireVersion);
}

}  // namespace mwr::parallel::transport
