// session.hpp — one tenant's resumable stream position inside bsrngd.
//
// A session is the pair (algorithm, seed); its byte stream is the canonical
// make_generator(algorithm, seed) stream, so "what bytes does tenant T get"
// never depends on the server: not on its worker count, not on connection
// interleaving, not on how many times the process restarted.  A client that
// remembers how many bytes it has consumed can reconnect anywhere and
// continue byte-exactly — the restart-determinism invariant of tests/net.
//
// Seek cost is the algorithm's PartitionSpec seek:
//   kCounter     every serve goes through StreamEngine's positional
//                generate, which seeks in O(1) via make_at_block (offsets
//                past 2^40 work).
//   kLaneSlice / kSequential
//                the session holds the live canonical generator and a
//                cursor.  Sequential traffic (offset == cursor, the common
//                case) streams straight from it; a forward jump clocks it
//                past the gap; a backward jump rebuilds it from the spec and
//                clocks from zero.  O(offset) worst case, O(stream length)
//                amortized over a session's life.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "core/registry.hpp"
#include "core/stream_engine.hpp"

namespace bsrng::net {

class Session {
 public:
  // Throws std::invalid_argument for unknown algorithm names (the server
  // probes algorithm_exists first and answers kUnknownAlgorithm instead).
  Session(std::string algorithm, std::uint64_t seed);

  const std::string& algorithm() const noexcept { return algorithm_; }
  std::uint64_t seed() const noexcept { return seed_; }
  core::PartitionKind kind() const noexcept { return spec_.kind; }
  // The next sequential byte offset (end of the last span served).
  std::uint64_t cursor() const noexcept { return cursor_; }

  // Bytes the session would have to clock through (discard, not serve) to
  // reach `offset`: always 0 for kCounter (O(1) seek); otherwise the
  // forward gap from the live generator's position, or the full offset when
  // the jump is backward (rebuild from the spec, clock from zero).  The
  // server bounds this with ServerConfig::max_seek_bytes before serving so
  // one hostile offset cannot pin the event loop in an unbounded discard.
  std::uint64_t seek_cost(std::uint64_t offset) const noexcept;

  // Fill `out` with bytes [offset, offset + out.size()) of the tenant's
  // canonical stream.  If generation throws partway (bad_alloc, engine
  // rejection), the live generator is dropped so the next serve rebuilds
  // from the spec — a desynced generator would silently corrupt the next
  // sequential span instead of erroring.
  void serve(core::StreamEngine& engine, std::uint64_t offset,
             std::span<std::uint8_t> out);

 private:
  std::string algorithm_;
  std::uint64_t seed_;
  core::PartitionSpec spec_;
  // kLaneSlice / kSequential live stream state: gen_ has produced exactly
  // gen_pos_ bytes of the canonical stream.
  std::unique_ptr<core::Generator> gen_;
  std::uint64_t gen_pos_ = 0;
  std::uint64_t cursor_ = 0;
};

}  // namespace bsrng::net
