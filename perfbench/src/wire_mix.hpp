// The wire-codec measurement shared by the churn and daemon workloads.
#pragma once

#include <array>
#include <cstdint>

#include "bench.hpp"
#include "core/packet.hpp"
#include "net/routing.hpp"

namespace perfbench {

/// wire.encode_ns / wire.decode_ns: per-frame cost of encode_packet and
/// decode over a frame mix with `by_type`'s proportions (Join frames
/// carry `join_path`).  A frame that fails to round-trip fails the run.
void add_wire_codec(Result& r, Tracer& tracer,
                    const std::array<std::uint64_t,
                                     bneck::core::kPacketTypeCount>& by_type,
                    const bneck::net::Path& join_path);

}  // namespace perfbench
