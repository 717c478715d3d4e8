// Wire-codec fuzzing: free packet-serialization coverage for
// `bneck_check --codec-seeds`.
//
// Each seed drives one deterministic campaign against src/wire:
//
//   * round-trips — random well-formed frames of every kind (all seven
//     packet types, Join path suffixes, control frames) must decode
//     back field-for-field, and re-encoding the decoded frame must
//     reproduce the original bytes (canonical encoding);
//   * mutations — truncations, extensions and byte flips of valid
//     frames must either be rejected with a decode error or decode to
//     a frame that itself round-trips (no half-validated state);
//   * garbage — random buffers must never crash the decoder;
//   * datagrams — 1–8 valid frames back to back must split and decode
//     frame for frame through wire::decode_datagram, and a truncation
//     or byte flip of one must be rejected whole or decode to frames
//     that each round-trip.
//
// Like the protocol fuzzer, the campaign is a pure function of the
// seed, so a failing seed is its own reproducer.
#pragma once

#include <cstdint>
#include <string>

namespace bneck::check {

struct CodecFuzzResult {
  std::uint64_t seed = 0;
  std::uint64_t frames = 0;     // well-formed frames round-tripped
  std::uint64_t datagrams = 0;  // multi-frame datagrams round-tripped
  std::uint64_t mutations = 0;  // mutated / garbage buffers decoded
  std::uint64_t rejected = 0;   // of those, rejected with an error
  std::string failure;          // empty when the seed passed

  [[nodiscard]] bool ok() const { return failure.empty(); }
};

/// Runs one seeded codec campaign (~hundreds of frames); never throws.
[[nodiscard]] CodecFuzzResult run_codec_seed(std::uint64_t seed);

}  // namespace bneck::check
