#include "check/codec_fuzz.hpp"

#include <cmath>
#include <cstdio>
#include <vector>

#include "base/rng.hpp"
#include "core/packet.hpp"
#include "wire/codec.hpp"

namespace bneck::check {
namespace {

using core::Packet;
using core::PacketType;
using core::ResponseTag;

std::string fmt(const char* f, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, args...);
  return buf;
}

Packet random_packet(Rng& rng) {
  Packet p;
  p.type = static_cast<PacketType>(
      rng.uniform_int(0, core::kPacketTypeCount - 1));
  p.tag = static_cast<ResponseTag>(rng.uniform_int(0, 2));
  p.beta = rng.chance(0.5);
  p.session = SessionId{
      static_cast<std::int32_t>(rng.uniform_int(0, 1 << 30))};
  p.eta = LinkId{static_cast<std::int32_t>(rng.uniform_int(-1, 1'000'000))};
  p.hop = static_cast<std::int32_t>(rng.uniform_int(-1, wire::kMaxHop));
  p.lambda = rng.chance(0.05) ? kRateInfinity : rng.uniform_real(0.0, 1e9);
  p.weight = rng.uniform_real(1e-2, 1e2);
  return p;
}

std::vector<LinkId> random_path(Rng& rng) {
  std::vector<LinkId> path(
      static_cast<std::size_t>(rng.uniform_int(2, 8)));
  for (LinkId& e : path) {
    e = LinkId{static_cast<std::int32_t>(rng.uniform_int(0, 9999))};
  }
  return path;
}

bool same_packet(const Packet& a, const Packet& b) {
  return a.type == b.type && a.tag == b.tag && a.beta == b.beta &&
         a.session == b.session && a.eta == b.eta && a.hop == b.hop &&
         a.lambda == b.lambda && a.weight == b.weight;
}

/// Re-encodes a decoded frame; canonical encoding means the bytes must
/// reproduce whatever decoded to it.
void reencode(const wire::Frame& f, std::vector<std::uint8_t>& out) {
  out.clear();
  switch (f.kind) {
    case wire::FrameKind::Packet:
      wire::encode_packet(f.packet, f.path, out);
      return;
    case wire::FrameKind::StatusRequest:
      wire::encode_status_request(out);
      return;
    case wire::FrameKind::StatusReply:
      wire::encode_status_reply(f.status, out);
      return;
    case wire::FrameKind::Shutdown:
      wire::encode_shutdown(out);
      return;
    case wire::FrameKind::Data: {
      std::vector<std::uint8_t> inner;
      wire::encode_packet(f.packet, f.path, inner);
      wire::encode_data(f.seq, inner, out);
      return;
    }
    case wire::FrameKind::Ack:
      wire::encode_ack(f.seq, out);
      return;
    case wire::FrameKind::Heartbeat:
      wire::encode_heartbeat(f.heartbeat_sessions, out);
      return;
  }
}

std::uint64_t random_u64(Rng& rng) {
  return static_cast<std::uint64_t>(rng.uniform_int(0, 0xffffffff)) << 32 |
         static_cast<std::uint64_t>(rng.uniform_int(0, 0xffffffff));
}

}  // namespace

CodecFuzzResult run_codec_seed(std::uint64_t seed) {
  CodecFuzzResult res;
  res.seed = seed;
  Rng rng(seed);
  std::vector<std::uint8_t> buf, rebuf;
  std::vector<std::vector<std::uint8_t>> corpus;

  try {
    // Round-trips: well-formed frames of every kind.
    for (int i = 0; i < 64 && res.ok(); ++i) {
      buf.clear();
      Packet p = random_packet(rng);
      std::vector<LinkId> path;
      if (p.type == PacketType::Join) {
        path = random_path(rng);
        p.hop = 1;  // the only hop a Join enters a daemon at
      }
      // Half the packets ride the reliability sublayer: wrapped in a
      // sequenced Data frame, as every reliable peer sends them.
      const bool wrapped = rng.chance(0.5);
      const std::uint64_t seq = random_u64(rng);
      if (wrapped) {
        std::vector<std::uint8_t> inner;
        wire::encode_packet(p, path, inner);
        wire::encode_data(seq, inner, buf);
      } else {
        wire::encode_packet(p, path, buf);
      }
      const wire::DecodeResult r = wire::decode(buf);
      ++res.frames;
      if (!r.ok()) {
        res.failure = fmt("frame %d: valid %s rejected: %s", i,
                          core::packet_type_name(p.type), r.error);
        break;
      }
      if (!same_packet(r.frame.packet, p) || r.frame.path != path) {
        res.failure =
            fmt("frame %d: %s did not round-trip", i,
                core::packet_type_name(p.type));
        break;
      }
      if (wrapped &&
          (r.frame.kind != wire::FrameKind::Data || r.frame.seq != seq)) {
        res.failure = fmt("frame %d: data wrapper did not round-trip", i);
        break;
      }
      reencode(r.frame, rebuf);
      if (rebuf != buf) {
        res.failure = fmt("frame %d: re-encode diverged", i);
        break;
      }
      corpus.push_back(buf);
    }
    if (res.ok()) {
      for (int i = 0; i < 5; ++i) {
        buf.clear();
        if (i == 0) {
          wire::encode_status_request(buf);
        } else if (i == 1) {
          wire::StatusReply s;
          s.stable = rng.chance(0.5);
          s.active_sessions =
              static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
          s.packets_seen = static_cast<std::uint64_t>(
              rng.uniform_int(0, std::int64_t{1} << 40));
          s.retransmissions = static_cast<std::uint64_t>(
              rng.uniform_int(0, std::int64_t{1} << 40));
          s.expired_sessions =
              static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
          for (std::uint32_t& c : s.rejects) {
            c = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
          }
          wire::encode_status_reply(s, buf);
        } else if (i == 2) {
          wire::encode_shutdown(buf);
        } else if (i == 3) {
          wire::encode_ack(random_u64(rng), buf);
        } else {
          wire::encode_heartbeat(
              static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20)), buf);
        }
        const wire::DecodeResult r = wire::decode(buf);
        ++res.frames;
        if (!r.ok()) {
          res.failure = fmt("control frame %d rejected: %s", i, r.error);
          break;
        }
        reencode(r.frame, rebuf);
        if (rebuf != buf) {
          res.failure = fmt("control frame %d: re-encode diverged", i);
          break;
        }
        corpus.push_back(buf);
      }
    }

    // Mutations of valid frames: truncate, extend, flip.  Every outcome
    // must be an explicit rejection or a frame that round-trips itself.
    for (int i = 0; i < 256 && res.ok(); ++i) {
      buf = corpus[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(corpus.size()) - 1))];
      const int op = static_cast<int>(rng.uniform_int(0, 2));
      if (op == 0 && !buf.empty()) {
        buf.resize(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(buf.size()) - 1)));
      } else if (op == 1) {
        const auto extra = rng.uniform_int(1, 8);
        for (std::int64_t k = 0; k < extra; ++k) {
          buf.push_back(
              static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
        }
      } else if (!buf.empty()) {
        const auto flips = rng.uniform_int(1, 4);
        for (std::int64_t k = 0; k < flips; ++k) {
          buf[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(buf.size()) - 1))] ^=
              static_cast<std::uint8_t>(rng.uniform_int(1, 255));
        }
      }
      const wire::DecodeResult r = wire::decode(buf);
      ++res.mutations;
      if (!r.ok()) {
        ++res.rejected;
        continue;
      }
      reencode(r.frame, rebuf);
      const wire::DecodeResult r2 = wire::decode(rebuf);
      if (!r2.ok()) {
        res.failure = fmt("mutation %d: accepted frame failed to re-decode: %s",
                          i, r2.error);
      }
    }

    // Garbage: the decoder must survive arbitrary bytes.
    for (int i = 0; i < 128 && res.ok(); ++i) {
      buf.resize(static_cast<std::size_t>(rng.uniform_int(0, 100)));
      for (std::uint8_t& b : buf) {
        b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
      const wire::DecodeResult r = wire::decode(buf);
      ++res.mutations;
      if (!r.ok()) ++res.rejected;
    }

    // Datagrams: corpus frames back to back, then one mutation of each.
    std::vector<wire::Frame> frames;
    std::vector<std::size_t> picks;
    for (int i = 0; i < 64 && res.ok(); ++i) {
      buf.clear();
      picks.resize(static_cast<std::size_t>(rng.uniform_int(1, 8)));
      for (std::size_t& k : picks) {
        k = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(corpus.size()) - 1));
        buf.insert(buf.end(), corpus[k].begin(), corpus[k].end());
      }
      if (const char* error = wire::decode_datagram(buf, frames)) {
        res.failure = fmt("datagram %d of %zu frames rejected: %s", i,
                          picks.size(), error);
        break;
      }
      ++res.datagrams;
      if (frames.size() != picks.size()) {
        res.failure = fmt("datagram %d: %zu frames split as %zu", i,
                          picks.size(), frames.size());
        break;
      }
      for (std::size_t k = 0; k < picks.size() && res.ok(); ++k) {
        reencode(frames[k], rebuf);
        if (rebuf != corpus[picks[k]]) {
          res.failure = fmt("datagram %d: frame %zu did not round-trip", i, k);
        }
      }
      if (!res.ok()) break;

      if (rng.chance(0.5)) {
        buf.resize(static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(buf.size()) - 1)));
      } else {
        const auto flips = rng.uniform_int(1, 4);
        for (std::int64_t k = 0; k < flips; ++k) {
          buf[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(buf.size()) - 1))] ^=
              static_cast<std::uint8_t>(rng.uniform_int(1, 255));
        }
      }
      ++res.mutations;
      if (wire::decode_datagram(buf, frames) != nullptr) {
        ++res.rejected;
        if (!frames.empty()) {
          res.failure = fmt("datagram mutation %d: rejected but delivered "
                            "%zu frames", i, frames.size());
        }
        continue;
      }
      for (std::size_t k = 0; k < frames.size() && res.ok(); ++k) {
        reencode(frames[k], rebuf);
        const wire::DecodeResult r2 = wire::decode(rebuf);
        if (!r2.ok()) {
          res.failure = fmt("datagram mutation %d: accepted frame %zu failed "
                            "to re-decode: %s", i, k, r2.error);
        }
      }
    }
  } catch (const std::exception& e) {
    res.failure = fmt("decode threw: %s", e.what());
  }
  return res;
}

}  // namespace bneck::check
