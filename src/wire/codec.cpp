#include "wire/codec.hpp"

#include <bit>
#include <cmath>
#include <utility>

namespace bneck::wire {

namespace {

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

std::uint32_t get_u32(std::span<const std::uint8_t> b, std::size_t off) {
  return static_cast<std::uint32_t>(b[off]) |
         static_cast<std::uint32_t>(b[off + 1]) << 8 |
         static_cast<std::uint32_t>(b[off + 2]) << 16 |
         static_cast<std::uint32_t>(b[off + 3]) << 24;
}

std::int32_t get_i32(std::span<const std::uint8_t> b, std::size_t off) {
  return static_cast<std::int32_t>(get_u32(b, off));
}

std::uint64_t get_u64(std::span<const std::uint8_t> b, std::size_t off) {
  return static_cast<std::uint64_t>(get_u32(b, off)) |
         static_cast<std::uint64_t>(get_u32(b, off + 4)) << 32;
}

double get_f64(std::span<const std::uint8_t> b, std::size_t off) {
  return std::bit_cast<double>(get_u64(b, off));
}

void put_header(std::vector<std::uint8_t>& out, FrameKind kind) {
  put_u8(out, kMagic0);
  put_u8(out, kMagic1);
  put_u8(out, kWireVersion);
  put_u8(out, static_cast<std::uint8_t>(kind));
}

std::uint32_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint32_t h = 2166136261u;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 16777619u;
  }
  return h;
}

// Appends the trailing checksum over everything the encoder wrote for
// this frame (out[start..end)).
void seal(std::vector<std::uint8_t>& out, std::size_t start) {
  put_u32(out, fnv1a({out.data() + start, out.size() - start}));
}

DecodeResult err(const char* what) {
  DecodeResult r;
  r.error = what;
  return r;
}

// Reads the length of the frame at the start of `bytes` into `len`;
// returns why no frame starts there, or nullptr.
const char* split_frame(std::span<const std::uint8_t> bytes,
                        std::size_t& len) {
  if (bytes.size() < kHeaderBytes) return "frame shorter than header";
  if (bytes[0] != kMagic0 || bytes[1] != kMagic1) return "bad magic";
  if (bytes[2] != kWireVersion) return "unsupported wire version";
  if (bytes[3] >= static_cast<std::uint8_t>(kFrameKindCount)) {
    return "unknown frame kind";
  }
  const auto kind = static_cast<FrameKind>(bytes[3]);
  switch (kind) {
    case FrameKind::StatusRequest:
    case FrameKind::Shutdown:
      len = kControlFrameBytes;
      break;
    case FrameKind::StatusReply:
      len = kStatusReplyBytes;
      break;
    case FrameKind::Ack:
      len = kAckFrameBytes;
      break;
    case FrameKind::Heartbeat:
      len = kHeartbeatFrameBytes;
      break;
    case FrameKind::Packet:
    case FrameKind::Data: {
      // Sized by the path length at offset 20 of the Packet frame (the
      // wrapped one, for Data).
      const bool data = kind == FrameKind::Data;
      const std::size_t at = data ? kDataPrefixBytes : 0;
      if (bytes.size() < at + 24) return "truncated packet frame";
      const std::uint32_t path_len = get_u32(bytes, at + 20);
      if (path_len > kMaxPathLinks) return "path suffix too long";
      len = at + kPacketFrameBytes + 4 * std::size_t{path_len} +
            (data ? kChecksumBytes : 0);
      break;
    }
  }
  return len > bytes.size() ? "truncated frame" : nullptr;
}

}  // namespace

const char* reject_reason_name(RejectReason r) {
  switch (r) {
    case RejectReason::DecodeError: return "decode-error";
    case RejectReason::UpstreamType: return "upstream-type";
    case RejectReason::BadEta: return "bad-eta";
    case RejectReason::BadJoinHop: return "bad-join-hop";
    case RejectReason::BadJoinPath: return "bad-join-path";
    case RejectReason::ReJoin: return "re-join";
    case RejectReason::UnknownSession: return "unknown-session";
    case RejectReason::DepartedSession: return "departed-session";
    case RejectReason::BadHop: return "bad-hop";
    case RejectReason::InvariantTrip: return "invariant-trip";
    case RejectReason::TooManyPeers: return "too-many-peers";
    case RejectReason::StaleFrame: return "stale-frame";
  }
  return "?";
}

void encode_packet(const core::Packet& p, std::span<const LinkId> path,
                   std::vector<std::uint8_t>& out) {
  out.reserve(out.size() + kPacketFrameBytes + 4 * path.size());
  put_header(out, FrameKind::Packet);
  put_u8(out, static_cast<std::uint8_t>(p.type));
  put_u8(out, static_cast<std::uint8_t>(p.tag));
  put_u8(out, p.beta ? 1 : 0);
  put_u8(out, 0);  // reserved
  put_i32(out, p.session.value());
  put_i32(out, p.eta.value());
  put_i32(out, p.hop);
  put_u32(out, static_cast<std::uint32_t>(path.size()));
  put_f64(out, p.lambda);
  put_f64(out, p.weight);
  for (const LinkId e : path) put_i32(out, e.value());
}

void encode_data(std::uint64_t seq, std::span<const std::uint8_t> inner,
                 std::vector<std::uint8_t>& out) {
  const std::size_t start = out.size();
  out.reserve(start + kDataPrefixBytes + inner.size() + kChecksumBytes);
  put_header(out, FrameKind::Data);
  put_u64(out, seq);
  out.insert(out.end(), inner.begin(), inner.end());
  seal(out, start);
}

void encode_ack(std::uint64_t cumulative, std::vector<std::uint8_t>& out) {
  const std::size_t start = out.size();
  put_header(out, FrameKind::Ack);
  put_u64(out, cumulative);
  seal(out, start);
}

void encode_heartbeat(std::uint32_t live_sessions,
                      std::vector<std::uint8_t>& out) {
  const std::size_t start = out.size();
  put_header(out, FrameKind::Heartbeat);
  put_u32(out, live_sessions);
  seal(out, start);
}

void encode_status_request(std::vector<std::uint8_t>& out) {
  const std::size_t start = out.size();
  put_header(out, FrameKind::StatusRequest);
  seal(out, start);
}

void encode_status_reply(const StatusReply& status,
                         std::vector<std::uint8_t>& out) {
  const std::size_t start = out.size();
  put_header(out, FrameKind::StatusReply);
  put_u8(out, status.stable ? 1 : 0);
  put_u8(out, 0);
  put_u8(out, 0);
  put_u8(out, 0);
  put_u32(out, status.active_sessions);
  put_u64(out, status.packets_seen);
  put_u64(out, status.retransmissions);
  put_u32(out, status.expired_sessions);
  for (const std::uint32_t c : status.rejects) put_u32(out, c);
  seal(out, start);
}

void encode_shutdown(std::vector<std::uint8_t>& out) {
  const std::size_t start = out.size();
  put_header(out, FrameKind::Shutdown);
  seal(out, start);
}

DecodeResult decode(std::span<const std::uint8_t> bytes) {
  // The header and the frame's length are split_frame's rules; the
  // frame must fill the buffer exactly.
  std::size_t len = 0;
  if (const char* error = split_frame(bytes, len)) return err(error);
  if (len != bytes.size()) return err("trailing bytes after the frame");
  DecodeResult r;
  r.frame.kind = static_cast<FrameKind>(bytes[3]);

  // Every non-Packet frame ends with a checksum over the rest; verify
  // it before trusting any field.
  if (r.frame.kind != FrameKind::Packet) {
    const std::size_t body = len - kChecksumBytes;
    if (fnv1a(bytes.first(body)) != get_u32(bytes, body)) {
      return err("frame checksum mismatch");
    }
  }

  switch (r.frame.kind) {
    case FrameKind::StatusRequest:
    case FrameKind::Shutdown:
      return r;

    case FrameKind::StatusReply: {
      if (bytes[4] > 1) return err("bad stable flag");
      if (bytes[5] != 0 || bytes[6] != 0 || bytes[7] != 0) {
        return err("nonzero reserved bytes");
      }
      r.frame.status.stable = bytes[4] == 1;
      r.frame.status.active_sessions = get_u32(bytes, 8);
      r.frame.status.packets_seen = get_u64(bytes, 12);
      r.frame.status.retransmissions = get_u64(bytes, 20);
      r.frame.status.expired_sessions = get_u32(bytes, 28);
      for (int i = 0; i < kRejectReasonCount; ++i) {
        r.frame.status.rejects[static_cast<std::size_t>(i)] =
            get_u32(bytes, 32 + 4 * static_cast<std::size_t>(i));
      }
      return r;
    }

    case FrameKind::Ack:
      r.frame.seq = get_u64(bytes, 4);
      return r;

    case FrameKind::Heartbeat:
      r.frame.heartbeat_sessions = get_u32(bytes, 4);
      return r;

    case FrameKind::Data: {
      const std::uint64_t seq = get_u64(bytes, 4);
      // The wrapped frame must be exactly one Packet frame — no nested
      // reliability, no control frames riding the sequenced stream.
      DecodeResult inner = decode(bytes.subspan(
          kDataPrefixBytes, len - kDataPrefixBytes - kChecksumBytes));
      if (!inner.ok()) return inner;
      if (inner.frame.kind != FrameKind::Packet) {
        return err("data frame wraps a non-packet frame");
      }
      r.frame = std::move(inner.frame);
      r.frame.kind = FrameKind::Data;
      r.frame.seq = seq;
      return r;
    }

    case FrameKind::Packet:
      break;
  }

  if (bytes[4] >= static_cast<std::uint8_t>(core::kPacketTypeCount)) {
    return err("packet type out of range");
  }
  if (bytes[5] > static_cast<std::uint8_t>(core::ResponseTag::Bottleneck)) {
    return err("response tag out of range");
  }
  if ((bytes[6] & ~std::uint8_t{1}) != 0) return err("unknown flag bits");
  if (bytes[7] != 0) return err("nonzero reserved byte");

  core::Packet& p = r.frame.packet;
  p.type = static_cast<core::PacketType>(bytes[4]);
  p.tag = static_cast<core::ResponseTag>(bytes[5]);
  p.beta = bytes[6] == 1;
  p.session = SessionId{get_i32(bytes, 8)};
  p.eta = LinkId{get_i32(bytes, 12)};
  p.hop = get_i32(bytes, 16);
  const std::uint32_t path_len = get_u32(bytes, 20);
  p.lambda = get_f64(bytes, 24);
  p.weight = get_f64(bytes, 32);

  if (!p.session.valid()) return err("invalid session id");
  if (p.eta.value() < -1) return err("invalid eta link id");
  if (p.hop < -1 || p.hop > kMaxHop) return err("hop out of bounds");
  if (std::isnan(p.lambda) || p.lambda < 0) return err("bad lambda");
  if (!std::isfinite(p.weight) || p.weight <= 0) return err("bad weight");

  if (path_len > 0 && p.type != core::PacketType::Join) {
    return err("path suffix on a non-Join packet");
  }
  // A session path has at least the two access links (net::Path).
  if (p.type == core::PacketType::Join && path_len < 2) {
    return err("Join without a session path");
  }
  r.frame.path.reserve(path_len);
  for (std::uint32_t i = 0; i < path_len; ++i) {
    const std::int32_t link = get_i32(bytes, kPacketFrameBytes + 4 * i);
    if (link < 0) return err("invalid path link id");
    r.frame.path.push_back(LinkId{link});
  }
  return r;
}

const char* decode_datagram(std::span<const std::uint8_t> bytes,
                            std::vector<Frame>& frames) {
  frames.clear();
  if (bytes.empty()) return "frame shorter than header";
  while (!bytes.empty()) {
    std::size_t len = 0;
    const char* error = split_frame(bytes, len);
    if (error == nullptr) {
      DecodeResult r = decode(bytes.first(len));
      error = r.error;
      if (r.ok()) frames.push_back(std::move(r.frame));
    }
    if (error != nullptr) {
      frames.clear();
      return error;
    }
    bytes = bytes.subspan(len);
  }
  return nullptr;
}

}  // namespace bneck::wire
