// The wire-codec measurement shared by the churn and daemon workloads.
#include "wire_mix.hpp"

#include <algorithm>
#include <cstdio>

#include "wire/codec.hpp"

namespace perfbench {

void add_wire_codec(Result& r, Tracer& tracer,
                    const std::array<std::uint64_t,
                                     bneck::core::kPacketTypeCount>& by_type,
                    const bneck::net::Path& join_path) {
  using bneck::core::Packet;
  using bneck::core::PacketType;
  using bneck::core::ResponseTag;
  constexpr std::size_t kFrames = 20000;
  constexpr int kRounds = 20;

  // The mix: kFrames packets whose types follow `by_type`, interleaved
  // by largest remaining deficit so every prefix has the mix's shape.
  std::uint64_t total = 0;
  for (const std::uint64_t c : by_type) total += c;
  if (total == 0 || join_path.links.size() < 2) return;
  std::array<double, bneck::core::kPacketTypeCount> owed{};
  std::vector<Packet> mix;
  mix.reserve(kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) {
    for (std::size_t t = 0; t < owed.size(); ++t) {
      owed[t] += static_cast<double>(by_type[t]) / static_cast<double>(total);
    }
    const auto pick = static_cast<std::size_t>(
        std::max_element(owed.begin(), owed.end()) - owed.begin());
    owed[pick] -= 1.0;
    Packet p;
    p.type = static_cast<PacketType>(pick);
    p.tag = ResponseTag::Response;
    p.beta = p.type == PacketType::SetBottleneck && (i % 2 == 0);
    p.session = bneck::SessionId{static_cast<std::int32_t>(i)};
    p.eta = join_path.links[i % join_path.links.size()];
    p.hop = p.type == PacketType::Join ? 1 : 2;
    p.lambda = 1.0 + static_cast<double>(i % 97);
    p.weight = 1.0;
    mix.push_back(p);
  }
  const std::vector<bneck::LinkId>& path = join_path.links;

  std::vector<std::vector<std::uint8_t>> frames(kFrames);
  std::size_t bad = 0;
  std::uint64_t sink = 0;
  std::vector<double> encode_ns, decode_ns;
  for (int round = 0; round < kRounds; ++round) {
    tracer.begin("wire.encode_batch");
    for (std::size_t i = 0; i < kFrames; ++i) {
      frames[i].clear();
      if (mix[i].type == PacketType::Join) {
        bneck::wire::encode_packet(mix[i], path, frames[i]);
      } else {
        bneck::wire::encode_packet(mix[i], frames[i]);
      }
    }
    encode_ns.push_back(static_cast<double>(tracer.end()) /
                        static_cast<double>(kFrames));
    tracer.begin("wire.decode_batch");
    for (std::size_t i = 0; i < kFrames; ++i) {
      const bneck::wire::DecodeResult d = bneck::wire::decode(frames[i]);
      if (!d.ok()) ++bad;
      sink += static_cast<std::uint64_t>(d.frame.packet.hop);
    }
    decode_ns.push_back(static_cast<double>(tracer.end()) /
                        static_cast<double>(kFrames));
  }
  if (bad > 0) r.fail("wire codec rejected " + std::to_string(bad) +
                      " frames it encoded");
  r.add("wire.encode_ns", median(encode_ns), "ns");
  r.add("wire.decode_ns", median(decode_ns), "ns");
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "wire: median of %d batches of %zu frames in the workload's "
                "type mix (checksum %llu)",
                kRounds, kFrames, static_cast<unsigned long long>(sink));
  r.notes.push_back(buf);
}

}  // namespace perfbench
