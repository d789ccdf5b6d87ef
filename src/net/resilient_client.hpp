// resilient_client.hpp — the self-healing bsrngd client.
//
// A Client wrapper that turns the protocol's idempotent spans into an
// at-most-once-visible, retry-forever-safe fetch: every kGenerate names an
// absolute (algorithm, seed, offset) span, so after ANY failure — connect
// refused, request deadline, mid-frame reset, server kill/restart, an
// injected fault — the client reconnects and re-asks for the exact byte
// offset it was owed, and the splice is byte-exact by the engine law
// (StreamEngine::generate is positional; DESIGN.md §13 has the proof
// sketch).
//
// Failure handling per attempt:
//   * connect: non-blocking with connect_timeout_ms (Client's deadline).
//   * request: read_response with request_timeout_ms; a timeout closes the
//     connection (the response may still be in flight — reading it later
//     would desync the pipeline) and retries.
//   * kRetryLater: the server shed the request; sleep max(server hint,
//     backoff) and retry.  The connection stays up.
//   * kServerError / connection loss / EOF: retry, reconnecting as needed.
//   * kBadFrame, kUnknownAlgorithm, kTooLarge, kSeekTooFar, kBadVersion,
//     kBadCheckpoint: permanent — retrying cannot help; throws
//     std::runtime_error.
//
// Backoff between attempts is capped exponential with deterministic jitter
// drawn from the pinned splitmix64 schedule (SeedStream over jitter_seed) —
// never wall-clock or rand(), so a chaos run's sleep pattern is a pure
// function of its seed.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/keyschedule.hpp"
#include "net/client.hpp"

namespace bsrng::net {

struct ResilientClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  int connect_timeout_ms = 5000;
  int request_timeout_ms = 15000;
  // Attempts per span (first try included).  Exhaustion throws.
  std::size_t max_attempts = 10;
  int backoff_base_ms = 5;
  int backoff_cap_ms = 500;
  std::uint64_t jitter_seed = 1;  // seeds the deterministic jitter stream
  // fetch() slices requests to at most this (and kMaxGenerateBytes).
  std::size_t span_bytes = 256u * 1024;
};

struct ResilientClientStats {
  std::uint64_t requests = 0;     // spans asked of the server (tries)
  std::uint64_t retries = 0;      // non-first attempts
  std::uint64_t reconnects = 0;   // connections established after the first
  std::uint64_t timeouts = 0;     // request deadlines that fired
  std::uint64_t retry_later = 0;  // kRetryLater responses honored
  std::uint64_t bytes = 0;        // payload bytes delivered
};

class ResilientClient {
 public:
  explicit ResilientClient(ResilientClientConfig config);

  // Fill `out` with bytes [offset, offset + out.size()) of the tenant
  // stream, slicing into spans and retrying each until delivered.  Throws
  // std::runtime_error on a permanent status or attempt exhaustion.
  void fetch(const std::string& algorithm, std::uint64_t seed,
             std::uint64_t offset, std::span<std::uint8_t> out);
  // Substream-addressed fetch: the same retry-forever-safe contract on the
  // stream named by `ref`.  A root ref goes out as a v1 kGenerate frame
  // (old servers keep working); any other ref uses kGenerate2 — spans stay
  // positional and idempotent either way, so the splice law is unchanged.
  void fetch(const std::string& algorithm, std::uint64_t seed,
             stream::StreamRef ref, std::uint64_t offset,
             std::span<std::uint8_t> out);

  std::vector<std::uint8_t> generate(const std::string& algorithm,
                                     std::uint64_t seed, std::uint64_t offset,
                                     std::size_t nbytes);
  std::vector<std::uint8_t> generate(const std::string& algorithm,
                                     std::uint64_t seed, stream::StreamRef ref,
                                     std::uint64_t offset, std::size_t nbytes);

  const ResilientClientStats& stats() const noexcept { return stats_; }
  bool connected() const noexcept { return client_.has_value(); }
  void close() { client_.reset(); }

 private:
  bool ensure_connected();
  // Sleep before retry `attempt` (0-based): capped exponential plus
  // deterministic jitter plus the server's retry-after hint, if any.
  void backoff(std::size_t attempt, std::uint32_t server_hint_ms);
  void fetch_span(const std::string& algorithm, std::uint64_t seed,
                  stream::StreamRef ref, std::uint64_t offset,
                  std::span<std::uint8_t> out);

  ResilientClientConfig config_;
  std::optional<Client> client_;
  core::keyschedule::SeedStream jitter_;
  bool ever_connected_ = false;
  ResilientClientStats stats_;
};

}  // namespace bsrng::net
