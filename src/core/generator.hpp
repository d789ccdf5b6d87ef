// generator.hpp — BSRNG's public bulk-generation interface.
//
// A Generator produces a deterministic byte stream from a seed.  Bitsliced
// engines run W independent cipher instances and serialize their output
// slice-by-slice (step t emits the W bits of all lanes, lane 0 = bit 0), so
// the stream is reproducible at any lane width... of the SAME width: the
// width is part of the generator's identity (e.g. "mickey-bs512").
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

namespace bsrng::core {

class Generator {
 public:
  virtual ~Generator() = default;

  // Fill `out` with the next bytes of the stream.
  virtual void fill(std::span<std::uint8_t> out) = 0;

  // Stable identifier (also the registry name).
  virtual std::string_view name() const noexcept = 0;

  // Number of independent internal instances (lanes); 1 for scalar PRNGs.
  virtual std::size_t lanes() const noexcept { return 1; }

  // Convenience draws built on fill().
  std::uint32_t next_u32();
  std::uint64_t next_u64();
  // Uniform double in [0, 1) with 53 random bits.
  double next_double();
};

// Clock `gen` forward by `n` stream bytes, discarding the output (chunked
// through a small scratch buffer).  The O(n) seek for generators whose
// family has no cheaper PartitionSpec decomposition — StreamEngine's
// positional generate and bsrngd's session resume use it for the
// kLaneSlice / kSequential paths.
void discard_bytes(Generator& gen, std::uint64_t n);

}  // namespace bsrng::core
