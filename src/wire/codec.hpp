// Wire format for B-Neck control packets.
//
// The simulator moves core::Packet structs between tasks by value; real
// processes need an explicit byte layout.  This module is that layout:
// a little-endian, versioned frame codec with pure encode/decode
// functions — no sockets, no peer, unit-testable in isolation (and
// fuzzable: `bneck_check --codec-seeds` round-trips and mutates frames
// through it).
//
// Every frame starts with a 4-byte header:
//
//   offset  size  field
//   0       1     magic 'B' (0x42)
//   1       1     magic 'N' (0x4E)
//   2       1     version (kWireVersion)
//   3       1     frame kind (FrameKind)
//
// A Packet frame (kind 0) continues with a fixed 36-byte body, then an
// optional path suffix (Join only — see docs/wire_format.md for why the
// wire Join carries the session path, a deliberate divergence from the
// paper's abstract messages):
//
//   4       1     packet type (core::PacketType, 0..6)
//   5       1     response tag (core::ResponseTag, 0..2)
//   6       1     flags (bit 0 = beta; other bits must be zero)
//   7       1     reserved (must be zero)
//   8       4     session id (int32)
//   12      4     eta link id (int32, -1 = no restricting link)
//   16      4     hop (int32)
//   20      4     path length (uint32; >= 2 on Join, 0 otherwise)
//   24      8     lambda (IEEE-754 double bits)
//   32      8     weight (IEEE-754 double bits)
//   40      4*n   path link ids (int32 each, Join only)
//
// The reliability sublayer (transport/reliable.hpp) adds three frames:
// Data (4) wraps one complete Packet frame with a 64-bit sequence
// number, Ack (5) carries the receiver's cumulative acknowledgement,
// and Heartbeat (6) is the client liveness beacon.  A StatusReply (2)
// frame carries the daemon's convergence snapshot plus its ingress
// drop counters, broken down by rejection reason.
//
// Every non-Packet frame ends with a 32-bit FNV-1a checksum over the
// rest of the frame.  UDP's 16-bit checksum is weak and optional, and a
// flipped bit in a cumulative ack silently slides the go-back-N window
// past undelivered frames, while a flipped kind bit turns a
// StatusRequest (1) into a Shutdown (3); the trailing checksum turns
// both into counted decode errors the retransmit timer repairs.  Bare
// Packet frames keep the v1 shape (no checksum): the reliable path
// wraps them in checksummed Data frames, and the bare form exists for
// hostile-ingress tests where mangled-but-plausible input is the point.
//
// decode() trusts nothing: magic, version, kind, enum ranges, hop and
// id bounds, flag/reserved bytes, float sanity and exact frame length
// are all validated, and violations come back as an expect-style error
// string instead of an exception or abort — a hostile or corrupted
// datagram must never take the daemon down.
//
// A datagram carries one or more whole frames back to back.  No frame
// has a length field of its own: decode_datagram() reads each length
// from its frame's header (kind, and the path length of a Packet frame
// or of a Data frame's wrapped Packet frame), splits the datagram that
// way and decodes every frame, all or nothing.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "base/ids.hpp"
#include "core/packet.hpp"

namespace bneck::wire {

inline constexpr std::uint8_t kMagic0 = 0x42;  // 'B'
inline constexpr std::uint8_t kMagic1 = 0x4E;  // 'N'
// v3: a datagram may carry several frames back to back.  v2 added the
// reliability sublayer (Data/Ack/Heartbeat) and the StatusReply drop
// counters.  No negotiation: both sides upgrade together, and a v2
// peer rejects every v3 frame by its version byte
// (docs/wire_format.md#versioning).
inline constexpr std::uint8_t kWireVersion = 3;

inline constexpr std::size_t kHeaderBytes = 4;
inline constexpr std::size_t kPacketFrameBytes = 40;
/// Trailing FNV-1a checksum carried by every non-Packet frame.
inline constexpr std::size_t kChecksumBytes = 4;
/// Data frame prefix: header + 64-bit sequence number; the wrapped
/// Packet frame follows verbatim, then the trailing checksum.
inline constexpr std::size_t kDataPrefixBytes = 12;
inline constexpr std::size_t kAckFrameBytes = 16;
inline constexpr std::size_t kHeartbeatFrameBytes = 12;
/// Header-only control frames (StatusRequest, Shutdown) + checksum.
inline constexpr std::size_t kControlFrameBytes =
    kHeaderBytes + kChecksumBytes;

/// Ingress sanity bound on the hop index; real paths are far shorter,
/// and the daemon re-checks against the session's actual path length.
inline constexpr std::int32_t kMaxHop = 4096;
/// Ingress sanity bound on the Join path suffix.
inline constexpr std::size_t kMaxPathLinks = 4096;
/// The longest legal frame: a Data frame wrapping a Join that carries
/// kMaxPathLinks path links.
inline constexpr std::size_t kMaxFrameBytes = kDataPrefixBytes +
                                              kPacketFrameBytes +
                                              4 * kMaxPathLinks +
                                              kChecksumBytes;

enum class FrameKind : std::uint8_t {
  Packet = 0,
  StatusRequest = 1,
  StatusReply = 2,
  Shutdown = 3,
  Data = 4,       // reliability: seq-wrapped Packet frame
  Ack = 5,        // reliability: cumulative acknowledgement
  Heartbeat = 6,  // client liveness beacon
};
inline constexpr int kFrameKindCount = 7;

/// Why the daemon dropped an ingress frame.  The counters cross the
/// wire in StatusReply, so the enum lives here; the daemon's ingress
/// (transport/daemon.cpp) is the writer.
enum class RejectReason : std::uint8_t {
  DecodeError = 0,      // datagram failed wire::decode
  UpstreamType = 1,     // upstream packet type from a peer
  BadEta = 2,           // eta references an unknown link
  BadJoinHop = 3,       // Join entering at a hop other than 1
  BadJoinPath = 4,      // invalid / non-contiguous / host-crossing path
  ReJoin = 5,           // session id reuse
  UnknownSession = 6,   // packet for a session never joined
  DepartedSession = 7,  // packet for a tombstoned session
  BadHop = 8,           // hop outside the session's path
  InvariantTrip = 9,    // InvariantError caught in a protocol handler
  TooManyPeers = 10,    // reliability peer table full
  StaleFrame = 11,      // duplicate / out-of-window reliable data
};
inline constexpr int kRejectReasonCount = 12;

[[nodiscard]] const char* reject_reason_name(RejectReason r);

// Header + stable flag + 3 reserved + active sessions + packets seen +
// retransmissions + expired sessions + per-reason reject counters +
// trailing checksum.
inline constexpr std::size_t kStatusReplyBytes =
    kHeaderBytes + 4 + 4 + 8 + 8 + 4 + 4 * kRejectReasonCount +
    kChecksumBytes;

/// Daemon convergence snapshot (StatusReply body).
struct StatusReply {
  bool stable = false;  // every router-link task stable
  std::uint32_t active_sessions = 0;
  std::uint64_t packets_seen = 0;       // wire frames accepted since start
  std::uint64_t retransmissions = 0;    // reliable frames re-sent by the daemon
  std::uint32_t expired_sessions = 0;   // sessions reaped by liveness expiry
  /// Ingress drops, indexed by RejectReason.
  std::array<std::uint32_t, kRejectReasonCount> rejects{};

  [[nodiscard]] std::uint64_t total_rejects() const {
    std::uint64_t n = 0;
    for (const std::uint32_t c : rejects) n += c;
    return n;
  }

  friend bool operator==(const StatusReply&, const StatusReply&) = default;
};

/// A decoded frame.  `packet`/`path` are meaningful for kinds Packet
/// and Data (path nonempty only for Join), `seq` for Data (sequence
/// number) and Ack (cumulative acknowledgement), `heartbeat_sessions`
/// for Heartbeat, `status` for kind StatusReply.
struct Frame {
  FrameKind kind = FrameKind::Packet;
  core::Packet packet;
  std::vector<LinkId> path;
  StatusReply status;
  std::uint64_t seq = 0;
  std::uint32_t heartbeat_sessions = 0;
};

/// Expect-style decode outcome: `error` is nullptr on success, else a
/// static description of the first violated rule.  Never throws.
struct DecodeResult {
  Frame frame;
  const char* error = nullptr;

  [[nodiscard]] bool ok() const { return error == nullptr; }
};

// ---- encoders (append to `out`; pure functions of their arguments) ----

/// Encodes a packet frame.  `path` must be empty unless p is a Join.
void encode_packet(const core::Packet& p, std::span<const LinkId> path,
                   std::vector<std::uint8_t>& out);
inline void encode_packet(const core::Packet& p,
                          std::vector<std::uint8_t>& out) {
  encode_packet(p, {}, out);
}

/// Wraps an already-encoded Packet frame (`inner`, produced by
/// encode_packet) in a reliability Data frame carrying `seq`.
void encode_data(std::uint64_t seq, std::span<const std::uint8_t> inner,
                 std::vector<std::uint8_t>& out);

void encode_ack(std::uint64_t cumulative, std::vector<std::uint8_t>& out);
void encode_heartbeat(std::uint32_t live_sessions,
                      std::vector<std::uint8_t>& out);

void encode_status_request(std::vector<std::uint8_t>& out);
void encode_status_reply(const StatusReply& status,
                         std::vector<std::uint8_t>& out);
void encode_shutdown(std::vector<std::uint8_t>& out);

// ---- decoder ----

/// Decodes one frame.  Validates framing, enum ranges, hop/id bounds
/// and float sanity; accepts exactly one frame per buffer (trailing
/// bytes are an error).  A Data frame's wrapped Packet frame is decoded
/// and validated recursively (it must itself be a Packet frame — no
/// nesting).  decode(encode(f)) reproduces f for every frame the
/// protocol emits.
[[nodiscard]] DecodeResult decode(std::span<const std::uint8_t> bytes);

/// Decodes a datagram of one or more frames into `frames` (cleared
/// first), in order.  All or nothing: if any frame cannot be split off
/// or decoded, `frames` is left empty and the first violated rule is
/// returned.  Returns nullptr on success; an empty datagram is an error.
[[nodiscard]] const char* decode_datagram(std::span<const std::uint8_t> bytes,
                                          std::vector<Frame>& frames);

}  // namespace bneck::wire
