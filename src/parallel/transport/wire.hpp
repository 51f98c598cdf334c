// Versioned wire format for the multi-process transport fabric.
//
// Every byte that crosses a process boundary — substrate Messages, barrier
// markers, congestion-cycle maxima, shutdown notices, and the campaign
// server's control frames and checkpoint sections — is one WireFrame,
// encoded as a little-endian, length-prefixed record:
//
//   u32 length      bytes that follow (header + payload)
//   u32 magic       'MWRW'
//   u16 version     kWireVersion; receivers reject mismatches
//   u8  kind        FrameKind
//   u8  flags       bit 0: congestion-tracked delivery (kMessage only)
//   i32 source      global source rank (kMessage; else 0)
//   i32 dest        global destination rank (kMessage; else 0)
//   i32 tag         message tag (kMessage; else 0)
//   u64 value       phase (markers), local cycle max (kCycleMax),
//                   world geometry check (kHello)
//   u32 count       kMessage: payload doubles that follow;
//                   every other kind: payload bytes that follow
//   f64 * count     payload (kMessage)
//   u8  * count     bytes (every other kind)
//
// A substrate Message is a vector of doubles, so kMessage frames carry
// exactly that.  Every other kind carries raw bytes, laid out by its
// owner (serve/payload_codec.hpp for the control plane and checkpoints).
// Encoding is a pure function of the frame — no clocks, no addresses, no
// ambient state — so two processes that serialize the same frame produce
// identical byte streams (pinned by the round-trip property tests).  The
// format is same-host by design (AF_UNIX sockets): both ends share
// endianness and IEEE-754 layout, which the HELLO handshake re-checks via
// kWireMagic.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace mwr::parallel::transport {

inline constexpr std::uint32_t kWireMagic = 0x4d575257u;  // "MWRW"
inline constexpr std::uint16_t kWireVersion = 2;

/// Fixed bytes per frame before the payload, excluding the length prefix.
inline constexpr std::size_t kFrameHeaderBytes = 4 + 2 + 1 + 1 + 12 + 8 + 4;

/// Thrown on corrupt, truncated-beyond-repair, or version-mismatched bytes.
class WireFormatError : public std::runtime_error {
 public:
  explicit WireFormatError(const std::string& what)
      : std::runtime_error("wire format: " + what) {}
};

enum class FrameKind : std::uint8_t {
  kHello = 0,          ///< channel handshake: value = geometry fingerprint.
  kMessage = 1,        ///< a substrate Message for a remote rank's mailbox.
  kBarrierMarker = 2,  ///< "my ranks reached global phase `value`".
  kCycleMax = 3,       ///< my local per-cycle congestion max for `value`.
  kShutdown = 4,       ///< orderly end of this sender's stream; a
                       ///< process-world worker's failure report
                       ///< carries its error text as bytes.
  // Campaign-server control plane (src/serve): the daemon speaks these
  // only on its control socket and in its checkpoint files.
  kSubmit = 5,         ///< submit a campaign; payload = encoded request.
  kStatus = 6,         ///< status query/report; value = campaign id.
  kCheckpoint = 7,     ///< checkpoint request/reply, or a checkpoint
                       ///< file section (value = section tag).
  kResult = 8,         ///< campaign result; value = campaign id.
};

/// The highest FrameKind a decoder accepts (bump when adding kinds).
inline constexpr std::uint8_t kMaxFrameKind =
    static_cast<std::uint8_t>(FrameKind::kResult);

struct WireFrame {
  FrameKind kind = FrameKind::kMessage;
  bool tracked = false;
  std::int32_t source = 0;
  std::int32_t dest = 0;
  std::int32_t tag = 0;
  std::uint64_t value = 0;
  std::vector<double> payload;      ///< kMessage only.
  std::vector<std::uint8_t> bytes;  ///< every other kind.

  bool operator==(const WireFrame&) const = default;

  [[nodiscard]] static WireFrame message(std::int32_t source,
                                         std::int32_t dest, std::int32_t tag,
                                         std::vector<double> payload,
                                         bool tracked) {
    WireFrame f;
    f.kind = FrameKind::kMessage;
    f.tracked = tracked;
    f.source = source;
    f.dest = dest;
    f.tag = tag;
    f.payload = std::move(payload);
    return f;
  }

  [[nodiscard]] static WireFrame control(FrameKind kind, std::uint64_t value) {
    WireFrame f;
    f.kind = kind;
    f.value = value;
    return f;
  }
};

static_assert(std::endian::native == std::endian::little,
              "the MWRW codec copies host-order fields; it must be "
              "little-endian");

/// Appends `value`'s little-endian bytes to `out`.
template <typename T>
  requires std::is_arithmetic_v<T>
void put(std::vector<std::uint8_t>& out, T value) {
  std::uint8_t raw[sizeof(T)];
  std::memcpy(raw, &value, sizeof(T));
  out.insert(out.end(), raw, raw + sizeof(T));
}

/// Reads a little-endian T at `p` and advances `p` past it.  The caller
/// has checked that sizeof(T) bytes are there.
template <typename T>
  requires std::is_arithmetic_v<T>
T get(const std::uint8_t*& p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  p += sizeof(T);
  return value;
}

/// Appends the length-prefixed encoding of `frame` to `out`.  Throws
/// std::invalid_argument when a kMessage frame carries bytes or another
/// kind carries doubles.
void encode_frame(const WireFrame& frame, std::vector<std::uint8_t>& out);

/// Encoded size of `frame` including the length prefix.
[[nodiscard]] std::size_t encoded_size(const WireFrame& frame) noexcept;

/// Decodes one frame from the front of [data, data+size).  Returns the
/// bytes consumed, or 0 when the buffer does not yet hold a complete frame.
/// Throws WireFormatError on bad magic/version, an unknown kind, or a
/// length that disagrees with the count.
std::size_t decode_frame(const std::uint8_t* data, std::size_t size,
                         WireFrame& out);

/// The geometry fingerprint HELLO frames carry: both ends must agree on
/// world size and process count before any payload flows.
[[nodiscard]] std::uint64_t geometry_fingerprint(
    std::size_t global_ranks, std::size_t processes) noexcept;

}  // namespace mwr::parallel::transport
