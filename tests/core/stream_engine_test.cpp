// stream_engine_test.cpp — the tentpole determinism property: for EVERY
// registered algorithm, StreamEngine output is byte-identical to a direct
// single-generator Generator::fill, for every worker count and for odd span
// sizes that straddle block/row boundaries.  This is the paper's §5.4
// reconstruction claim ("the same output sequence ... generated identically
// in a single GPU sequentially") generalized from 2 algorithms to the whole
// registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/stream_engine.hpp"
#include "core/thread_pool.hpp"

namespace co = bsrng::core;

namespace {

constexpr std::uint64_t kSeed = 0xB5126'2024ull;

// The big span deliberately ends 7 bytes short of 1 MiB so it is not a
// multiple of any block (16, 64) or row (W/8) size.  The TSan CI leg
// shrinks it via BSRNG_STREAM_TEST_BIG to keep instrumented runtime sane.
std::size_t big_size() {
  if (const char* env = std::getenv("BSRNG_STREAM_TEST_BIG")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return (1u << 20) - 7;
}

std::vector<std::size_t> span_sizes() { return {1, 31, 4095, big_size()}; }

class StreamEngineDeterminism : public ::testing::TestWithParam<std::string> {
};

std::vector<std::string> all_names() {
  std::vector<std::string> names;
  for (const auto& a : co::list_algorithms()) names.push_back(a.name);
  return names;
}

// The lane-slice families at W in {32, 128, 512}: the widths whose grids
// span one block (W = 32), a few, and the full AVX-512 datapath.
bool on_lane_grid(const co::AlgorithmInfo& a) {
  return a.partition == co::PartitionKind::kLaneSlice &&
         (a.lanes == 32 || a.lanes == 128 || a.lanes == 512);
}

// Every algorithm runs on {1, 2, 3, 8} workers; the lane-grid algorithms
// also run on 4, 5, 16 and 17, which include more workers than the W/32
// lane blocks the narrowest grid has.
std::vector<std::size_t> worker_counts(const std::string& name) {
  std::vector<std::size_t> w = {1, 2, 3, 8};
  if (on_lane_grid(*co::find_algorithm(name)))
    w.insert(w.end(), {4, 5, 16, 17});
  return w;
}

}  // namespace

TEST_P(StreamEngineDeterminism, MatchesDirectFillForEveryWorkerCount) {
  const std::string name = GetParam();
  const std::size_t big = big_size();

  // One canonical stream per algorithm, generated the trusted way.
  std::vector<std::uint8_t> reference(big);
  co::make_generator(name, kSeed)->fill(reference);

  for (const std::size_t workers : worker_counts(name)) {
    co::StreamEngine engine({.workers = workers});
    for (const std::size_t n : span_sizes()) {
      std::vector<std::uint8_t> out(n, 0xAA);
      const auto rep = engine.generate({name, kSeed}, out);
      ASSERT_TRUE(std::equal(out.begin(), out.end(), reference.begin()))
          << name << " diverges from the direct stream with " << workers
          << " workers at span size " << n;
      EXPECT_EQ(rep.workers, workers);
      EXPECT_EQ(rep.bytes, n) << name;
    }
  }
}

TEST_P(StreamEngineDeterminism, InlineModeAndContiguousChunksAgree) {
  // chunk_bytes == 0 (one contiguous chunk per worker, the multi-device
  // layout) and parallel == false (inline execution) must both reproduce
  // the canonical stream too.
  const std::string name = GetParam();
  const std::size_t n = 65536 - 3;
  std::vector<std::uint8_t> reference(n);
  co::make_generator(name, kSeed)->fill(reference);

  co::StreamEngine contiguous({.workers = 3, .chunk_bytes = 0});
  co::StreamEngine inline_eng(
      {.workers = 3, .chunk_bytes = 1u << 12, .parallel = false});
  std::vector<std::uint8_t> a(n), b(n);
  contiguous.generate({name, kSeed}, a);
  inline_eng.generate({name, kSeed}, b);
  EXPECT_EQ(a, reference) << name;
  EXPECT_EQ(b, reference) << name;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, StreamEngineDeterminism,
                         ::testing::ValuesIn(all_names()),
                         [](const auto& pinfo) {
                           std::string s = pinfo.param;
                           for (char& c : s)
                             if (c == '-') c = '_';
                           return s;
                         });

TEST(StreamEngine, UnknownAlgorithmThrows) {
  co::StreamEngine engine({.workers = 2});
  std::vector<std::uint8_t> out(16);
  EXPECT_THROW(engine.generate({"not-a-generator", 1}, out),
               std::invalid_argument);
  EXPECT_THROW(co::partition_spec("not-a-generator", 1),
               std::invalid_argument);
}

TEST(StreamEngine, EmptySpanIsTrivial) {
  co::StreamEngine engine({.workers = 4});
  const auto rep = engine.generate({"aes-ctr-bs32", 7}, {});
  EXPECT_EQ(rep.bytes, 0u);
  EXPECT_EQ(rep.workers, 4u);
}

TEST(StreamEngine, ReportAccountsAllBytesAndTasks) {
  co::StreamEngine engine({.workers = 2, .chunk_bytes = 1u << 14});
  std::vector<std::uint8_t> out((1u << 18) + 5);
  const auto rep = engine.generate({"chacha20-bs64", 11}, out);
  EXPECT_EQ(rep.bytes, out.size());
  EXPECT_EQ(rep.per_worker.size(), 2u);
  std::uint64_t bytes = 0;
  std::size_t tasks = 0;
  for (const auto& w : rep.per_worker) {
    bytes += w.bytes;
    tasks += w.tasks;
  }
  EXPECT_EQ(bytes, out.size());
  EXPECT_GT(tasks, 0u);
  EXPECT_GE(rep.sum_worker_seconds, rep.max_worker_seconds);
  EXPECT_GE(rep.modeled_speedup(), 1.0 - 1e-9);
}

TEST(StreamEngine, LaneGridUsesTheWidestSliceThatGivesEveryWorkerAShard) {
  for (const auto& a : co::list_algorithms()) {
    if (a.partition != co::PartitionKind::kLaneSlice) continue;
    for (const std::size_t workers : {1u, 2u, 3u, 4u, 5u, 8u, 16u, 17u}) {
      // The rule: the widest S in {32, ..., 512} with S <= W and
      // W/S >= workers, or 32 when none leaves that many blocks.
      std::size_t s = 32;
      for (const std::size_t c : {64u, 128u, 256u, 512u})
        if (c <= a.lanes && a.lanes / c >= workers) s = c;
      const auto spec = co::partition_spec(a.name, kSeed, workers);
      ASSERT_EQ(spec.lane_block_bytes, s / 8)
          << a.name << " workers " << workers;
      ASSERT_EQ(spec.lane_blocks, a.lanes / s)
          << a.name << " workers " << workers;
      for (std::size_t b = 0; b < spec.lane_blocks; ++b)
        EXPECT_EQ(spec.make_lane_block(b)->lanes(), 8 * spec.lane_block_bytes)
            << a.name << " block " << b;

      // A non-empty call on an engine of that width runs one task per
      // lane block, and reports the width its shards ran at.
      co::StreamEngine engine({.workers = workers});
      std::vector<std::uint8_t> out(a.lanes / 8 + 1);
      const auto rep = engine.generate({a.name, kSeed}, out);
      std::size_t tasks = 0;
      for (const auto& w : rep.per_worker) tasks += w.tasks;
      EXPECT_EQ(tasks, spec.lane_blocks) << a.name << " workers " << workers;
      EXPECT_EQ(rep.executed_width, s) << a.name << " workers " << workers;
    }
    // workers = 0 is the host-concurrency grid.
    EXPECT_EQ(co::partition_spec(a.name, kSeed).lane_blocks,
              co::partition_spec(a.name, kSeed,
                                 co::ThreadPool::default_workers())
                  .lane_blocks)
        << a.name;
  }
}

TEST(StreamEngine, PartitionKindsMatchListing) {
  // The listing's partition column is the spec actually built.
  for (const auto& a : co::list_algorithms()) {
    const auto spec = co::partition_spec(a.name, 1);
    EXPECT_EQ(static_cast<int>(spec.kind), static_cast<int>(a.partition))
        << a.name;
    EXPECT_TRUE(spec.make != nullptr) << a.name;  // fallback always present
  }
}

// ---------------------------------------------------------------------------
// Positional generate — the offset-addressable span API bsrngd's session
// resume is built on.  Tail-equivalence law: generate({.., offset}, n) must
// equal the last n bytes of a fresh offset+n byte fill, for every partition
// kind, worker count, and unaligned offset.
// ---------------------------------------------------------------------------

namespace {

// One representative per partition kind plus the odd-block cipher: counter
// (16B blocks), counter (64B blocks), lane-slice, and sequential.
const char* const kOffsetAlgos[] = {"aes-ctr-bs64", "chacha20-bs32",
                                    "mickey-bs64", "grain-bs32", "mt19937"};

struct TailCase {
  std::string name;
  std::vector<std::uint64_t> offsets;
  std::vector<std::size_t> lengths;
  std::vector<std::size_t> workers;
};

std::vector<TailCase> tail_cases() {
  std::vector<TailCase> cases;
  // Offsets straddle block (16/64) and row (W/8 per step) boundaries.
  for (const char* name : kOffsetAlgos)
    cases.push_back({name, {1, 15, 16, 63, 64, 257, 4095}, {8191}, {1, 3}});
  // Lane grids: spans that start and end inside a row, on either side of a
  // row boundary, and past a 64 KiB seek, on grids of every shape.
  for (const auto& a : co::list_algorithms()) {
    if (!on_lane_grid(a)) continue;
    const std::uint64_t row = a.lanes / 8;
    cases.push_back({a.name,
                     {1, row - 1, row, 5 * row + 3, 65537},
                     {1, row - 1, row + 1, 40000},
                     {4, 5, 16, 17}});
  }
  return cases;
}

}  // namespace

TEST(StreamEngineGenerateAt, TailEquivalenceAtUnalignedOffsets) {
  for (const TailCase& c : tail_cases()) {
    const std::uint64_t reach =
        *std::max_element(c.offsets.begin(), c.offsets.end()) +
        *std::max_element(c.lengths.begin(), c.lengths.end());
    std::vector<std::uint8_t> reference(reach);
    co::make_generator(c.name, kSeed)->fill(reference);
    for (const std::size_t workers : c.workers) {
      co::StreamEngine engine({.workers = workers, .chunk_bytes = 1u << 10});
      for (const std::uint64_t offset : c.offsets) {
        for (const std::size_t n : c.lengths) {
          std::vector<std::uint8_t> out(n, 0xAA);
          const auto rep = engine.generate({c.name, kSeed, {}, offset}, out);
          ASSERT_TRUE(std::equal(out.begin(), out.end(),
                                 reference.begin() +
                                     static_cast<std::ptrdiff_t>(offset)))
              << c.name << " offset " << offset << " length " << n
              << " workers " << workers;
          EXPECT_EQ(rep.bytes, n) << c.name;
        }
      }
    }
  }
}

TEST(StreamEngineGenerateAt, ZeroLengthSpansAreTrivialAtAnyOffset) {
  co::StreamEngine engine({.workers = 2});
  for (const char* name : kOffsetAlgos) {
    for (const std::uint64_t offset :
         {std::uint64_t{0}, std::uint64_t{13}, std::uint64_t{1} << 41}) {
      const auto rep = engine.generate({name, kSeed, {}, offset}, {});
      EXPECT_EQ(rep.bytes, 0u) << name << " offset " << offset;
    }
  }
}

TEST(StreamEngineGenerateAt, HugeCounterOffsetsSeekInConstantTime) {
  // Counter-partition ciphers must serve offsets beyond 2^40 instantly (the
  // O(1) make_at_block seek); the reference comes from the spec's own block
  // factory so the test does not need to generate a terabyte.
  for (const char* name : {"aes-ctr-bs64", "chacha20-bs32", "philox"}) {
    const auto spec = co::partition_spec(name, kSeed);
    ASSERT_EQ(spec.kind, co::PartitionKind::kCounter) << name;
    const std::uint64_t offset = (std::uint64_t{1} << 42) + 11;  // unaligned
    const std::size_t n = 5000;
    const std::uint64_t bb = spec.block_bytes;
    const std::size_t lead = static_cast<std::size_t>(offset % bb);
    std::vector<std::uint8_t> reference(lead + n);
    spec.make_at_block(offset / bb)->fill(reference);

    for (const std::size_t workers : {1u, 4u}) {
      co::StreamEngine engine({.workers = workers, .chunk_bytes = 1u << 10});
      std::vector<std::uint8_t> out(n, 0x55);
      engine.generate({name, kSeed, {}, offset}, out);
      ASSERT_TRUE(std::equal(out.begin(), out.end(),
                             reference.begin() +
                                 static_cast<std::ptrdiff_t>(lead)))
          << name << " workers " << workers;
    }
  }
}

TEST(StreamEngineGenerateAt, OverflowingSpansAreRejected) {
  // offset + out.size() wrapping past 2^64 would corrupt the lane-slice row
  // arithmetic and the counter/sequential seeks; positional generate must
  // reject it before any work, for every partition kind.
  co::StreamEngine engine({.workers = 2});
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  for (const char* name : kOffsetAlgos) {
    std::vector<std::uint8_t> out(64);
    EXPECT_THROW(engine.generate({name, kSeed, {}, max - 10}, out),
                 std::invalid_argument)
        << name;
    // One byte past the largest representable end offset.
    EXPECT_THROW(
        engine.generate({name, kSeed, {}, max - out.size() + 1}, out),
        std::invalid_argument)
        << name;
    // Empty spans stay trivially valid even at the very top of the space.
    EXPECT_NO_THROW(engine.generate({name, kSeed, {}, max}, {})) << name;
  }
}

TEST(StreamEngineGenerateAt, BackToBackSpansFromInterleavedSessionsAreSeamless) {
  // Two tenant streams served in alternating spans — exactly what bsrngd's
  // per-connection batching produces — must each concatenate to the same
  // bytes as one contiguous generate.
  struct Tenant {
    const char* algo;
    std::uint64_t seed;
    std::uint64_t cursor = 0;
    std::vector<std::uint8_t> got;
  };
  const std::size_t total = 40000;
  for (auto [a, b] : {std::pair<const char*, const char*>{
                          "aes-ctr-bs64", "mickey-bs32"},
                      {"trivium-bs64", "chacha20-bs64"}}) {
    Tenant t[2] = {{a, 101, 0, {}}, {b, 202, 0, {}}};
    co::StreamEngine engine({.workers = 3, .chunk_bytes = 1u << 12});
    const std::size_t spans[] = {313, 4096, 77, 8191, 1024};
    std::size_t si = 0;
    while (t[0].got.size() < total || t[1].got.size() < total) {
      Tenant& cur = t[si % 2];
      if (cur.got.size() < total) {
        const std::size_t n =
            std::min(spans[si % 5], total - cur.got.size());
        std::vector<std::uint8_t> out(n);
        engine.generate({cur.algo, cur.seed, {}, cur.cursor}, out);
        cur.got.insert(cur.got.end(), out.begin(), out.end());
        cur.cursor += n;
      }
      ++si;
    }
    for (const Tenant& tt : t) {
      std::vector<std::uint8_t> reference(total);
      co::make_generator(tt.algo, tt.seed)->fill(reference);
      ASSERT_EQ(tt.got, reference) << tt.algo;
    }
  }
}
