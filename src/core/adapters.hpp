// adapters.hpp — internal Generator adapters shared by the registry and the
// algorithm descriptor table (descriptors.cpp).
//
// Exactly two adapters cover every bitsliced cipher in the library:
//   SlicedStreamGen — wraps a W-lane stream-cipher engine exposing step();
//                     serializes each step's slice little-endian (lane j =
//                     bit j).
//   CounterModeGen  — wraps a counter-mode bulk engine exposing fill()
//                     (AesCtrBs / ChaCha20Bs), whose stream is already
//                     serialized in block order.
// Per-cipher *Gen wrapper classes used to live in registry.cpp; the
// descriptor table instantiates these two templates instead.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "bitslice/slice.hpp"
#include "core/generator.hpp"

namespace bsrng::core {

// Lanes per simulated GPU thread — the paper's per-thread configuration
// (§4.4 runs one 32-lane engine per CUDA thread, §5.4 one such engine per
// device) — and the narrowest StreamEngine lane shard.
inline constexpr std::size_t kLaneBlockLanes = 32;

namespace adapters {

namespace bs = bsrng::bitslice;

// Serialize one slice little-endian: lane j of the slice becomes bit j of
// the output bytes.
template <typename W>
void slice_to_bytes(const W& s, std::uint8_t* out) {
  constexpr std::size_t nwords =
      bs::lane_count<W> / 64 + (bs::lane_count<W> < 64);
  for (std::size_t k = 0; k < nwords; ++k) {
    const std::uint64_t w = bs::SliceTraits<W>::word64(s, k);
    const std::size_t nbytes = std::min<std::size_t>(8, bs::lane_count<W> / 8);
    for (std::size_t b = 0; b < nbytes; ++b)
      out[8 * k + b] = static_cast<std::uint8_t>(w >> (8 * b));
  }
}

// Adapter for bitsliced stream-cipher engines (MickeyBs/GrainBs/TriviumBs/
// A51Bs): each step() emits W bits, one per lane.
template <typename W, typename Engine>
class SlicedStreamGen final : public Generator {
 public:
  SlicedStreamGen(std::string name, Engine engine)
      : name_(std::move(name)), engine_(std::move(engine)) {}

  void fill(std::span<std::uint8_t> out) override {
    constexpr std::size_t step_bytes = bs::lane_count<W> / 8;
    std::size_t i = 0;
    // Drain residue.
    while (pos_ < buf_len_ && i < out.size()) out[i++] = buf_[pos_++];
    // Whole steps straight into the output.
    while (i + step_bytes <= out.size()) {
      const W z = engine_.step();
      slice_to_bytes(z, out.data() + i);
      i += step_bytes;
    }
    // Final partial step via the residue buffer.
    if (i < out.size()) {
      const W z = engine_.step();
      slice_to_bytes(z, buf_.data());
      buf_len_ = step_bytes;
      pos_ = 0;
      while (i < out.size()) out[i++] = buf_[pos_++];
    }
  }

  std::string_view name() const noexcept override { return name_; }
  std::size_t lanes() const noexcept override { return bs::lane_count<W>; }

 private:
  std::string name_;
  Engine engine_;
  std::array<std::uint8_t, 64> buf_{};
  std::size_t buf_len_ = 0, pos_ = 0;
};

// Adapter for counter-mode bulk engines (AesCtrBs/ChaCha20Bs): the engine
// already produces the serialized stream, the adapter only carries the name.
template <typename W, typename Engine>
class CounterModeGen final : public Generator {
 public:
  CounterModeGen(std::string name, Engine engine)
      : name_(std::move(name)), engine_(std::move(engine)) {}

  void fill(std::span<std::uint8_t> out) override { engine_.fill(out); }
  std::string_view name() const noexcept override { return name_; }
  std::size_t lanes() const noexcept override { return bs::lane_count<W>; }

 private:
  std::string name_;
  Engine engine_;
};

// Lane width encoded in a "<cipher>-bs<width>" name, 0 if `name` does not
// start with `prefix`.
inline std::size_t bs_width(std::string_view name, std::string_view prefix) {
  if (!name.starts_with(prefix)) return 0;
  const std::string_view rest = name.substr(prefix.size());
  for (const std::size_t w : {32u, 64u, 128u, 256u, 512u})
    if (rest == std::to_string(w)) return w;
  return 0;
}

// Invoke fn.template operator()<W>() for the slice type of width w.
template <typename Fn>
void with_slice_width(std::size_t w, Fn&& fn) {
  switch (w) {
    case 32: fn.template operator()<bs::SliceU32>(); break;
    case 64: fn.template operator()<bs::SliceU64>(); break;
    case 128: fn.template operator()<bs::SliceV128>(); break;
    case 256: fn.template operator()<bs::SliceV256>(); break;
    case 512: fn.template operator()<bs::SliceV512>(); break;
    default: throw std::invalid_argument("unsupported lane width");
  }
}

}  // namespace adapters

}  // namespace bsrng::core
