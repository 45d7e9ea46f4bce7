// Equivalence suite for the batched hot-path update pipeline: feeding a
// stream through LatticeHhh::update_batch must leave the lattice in
// state byte-identical to n per-packet update() calls -- same RNG draw
// sequence, same rotation packets, same counter rosters, same output() and
// estimate() values -- for every lattice mode and for arbitrary batch split
// points. This pins the determinism contract the engine's
// golden digests (test_engine.cpp) rely on.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/windowed.hpp"
#include "hh/space_saving.hpp"
#include "hhh/lattice_hhh.hpp"
#include "net/ipv4.hpp"
#include "trace/trace_gen.hpp"
#include "util/random.hpp"

namespace rhhh {
namespace {

std::uint64_t fnv1a(std::uint64_t h, const char* s) {
  for (; *s != '\0'; ++s) {
    h ^= static_cast<unsigned char>(*s);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// In-order digest of an HHH set: pins candidate iteration order and
/// full-precision numbers, not just set membership.
std::uint64_t digest_set_ordered(const Hierarchy& h, const HhhSet& s) {
  std::uint64_t d = 0xcbf29ce484222325ULL;
  for (const HhhCandidate& c : s) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s|%.17g|%.17g|%.17g|%.17g",
                  h.format(c.prefix).c_str(), c.f_est, c.f_lo, c.f_hi, c.c_hat);
    d = fnv1a(d, buf);
  }
  return d;
}

/// Digest of every per-node roster in iteration order -- byte-identical
/// internal state, not just identical query answers.
std::uint64_t digest_nodes(const RhhhSpaceSaving& alg, std::uint32_t nodes) {
  std::uint64_t d = 0xcbf29ce484222325ULL;
  for (std::uint32_t v = 0; v < nodes; ++v) {
    alg.instance(v).for_each([&](const Key128& k, std::uint64_t up, std::uint64_t lo) {
      char buf[120];
      std::snprintf(buf, sizeof buf, "%u|%016llx%016llx|%llu|%llu", v,
                    static_cast<unsigned long long>(k.hi),
                    static_cast<unsigned long long>(k.lo),
                    static_cast<unsigned long long>(up),
                    static_cast<unsigned long long>(lo));
      d = fnv1a(d, buf);
    });
  }
  return d;
}

/// A skewed key stream with enough distinct keys to force evictions in the
/// Space-Saving rosters (the order-sensitive backend path).
std::vector<Key128> make_stream(std::size_t n, std::uint64_t seed) {
  std::vector<Key128> keys;
  keys.reserve(n);
  Xoroshiro128 rng(seed);
  ZipfDistribution zipf(50000, 1.1);
  for (std::size_t i = 0; i < n; ++i) {
    const auto z = static_cast<std::uint32_t>(zipf(rng));
    keys.push_back(Key128::from_u32(0x0a000000u + z));
  }
  return keys;
}

/// Feed `keys` through update_batch in randomly sized chunks (including
/// empty and single-record batches) -- fuzzes the split points the engine /
/// windowed monitor would produce.
template <class Alg>
void feed_batched(Alg& alg, const std::vector<Key128>& keys, std::uint64_t seed) {
  Xoroshiro128 rng(seed);
  std::size_t i = 0;
  while (i < keys.size()) {
    std::size_t take = rng.bounded(257);  // 0..256: exercises the n == 0 edge
    if (take > keys.size() - i) take = keys.size() - i;
    alg.update_batch(keys.data() + i, take);
    i += take;
  }
}

void expect_equivalent(LatticeMode mode, std::uint64_t chunk_seed) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.01;
  lp.delta = 0.05;
  lp.V = 10 * static_cast<std::uint32_t>(h.size());  // 10-RHHH flavor
  lp.seed = 99;
  RhhhSpaceSaving serial(h, mode, lp);
  RhhhSpaceSaving batched(h, mode, lp);

  const std::vector<Key128> keys = make_stream(60000, 1234);
  for (const Key128& k : keys) serial.update(k);
  feed_batched(batched, keys, chunk_seed);

  const auto nodes = static_cast<std::uint32_t>(h.size());
  EXPECT_EQ(serial.stream_length(), batched.stream_length());
  EXPECT_EQ(serial.updates_performed(), batched.updates_performed());
  EXPECT_EQ(digest_nodes(serial, nodes), digest_nodes(batched, nodes));
  for (const double theta : {0.001, 0.01, 0.1}) {
    EXPECT_EQ(digest_set_ordered(h, serial.output(theta)),
              digest_set_ordered(h, batched.output(theta)))
        << to_string(mode) << " theta=" << theta;
  }
  // estimate() spot checks on hot and cold prefixes at every lattice level.
  for (std::uint32_t node = 0; node < nodes; ++node) {
    for (const std::uint32_t ip : {0x0a000001u, 0x0a0000ffu, 0x0b010203u}) {
      const Prefix p{node, h.mask_key(node, Key128::from_u32(ip))};
      EXPECT_EQ(serial.estimate(p), batched.estimate(p));
    }
  }
}

TEST(BatchEquivalence, SpaceSavingAllModes) {
  expect_equivalent(LatticeMode::kRhhh, 7);
  expect_equivalent(LatticeMode::kMst, 8);
  expect_equivalent(LatticeMode::kSampledMst, 9);
}

TEST(BatchEquivalence, MultiUpdateFactorRhhh) {
  // r > 1 consumes r draws per packet; batch draw order must still match.
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.02;
  lp.delta = 0.05;
  lp.V = 4 * static_cast<std::uint32_t>(h.size());
  lp.r = 3;
  lp.seed = 5;
  RhhhSpaceSaving serial(h, LatticeMode::kRhhh, lp);
  RhhhSpaceSaving batched(h, LatticeMode::kRhhh, lp);
  const std::vector<Key128> keys = make_stream(30000, 77);
  for (const Key128& k : keys) serial.update(k);
  feed_batched(batched, keys, 42);
  EXPECT_EQ(serial.updates_performed(), batched.updates_performed());
  EXPECT_EQ(digest_nodes(serial, static_cast<std::uint32_t>(h.size())),
            digest_nodes(batched, static_cast<std::uint32_t>(h.size())));
  EXPECT_EQ(digest_set_ordered(h, serial.output(0.01)),
            digest_set_ordered(h, batched.output(0.01)));
}

TEST(BatchEquivalence, PrefetchDistanceNeverChangesResults) {
  // prefetch_distance is a pure performance knob: every setting (off, tiny,
  // default, huge) must produce the identical roster digest.
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  const std::vector<Key128> keys = make_stream(40000, 9);
  std::uint64_t reference = 0;
  bool first = true;
  for (const std::uint32_t dist : {0u, 1u, 4u, 8u, 16u, 64u}) {
    LatticeParams lp;
    lp.eps = 0.01;
    lp.delta = 0.05;
    lp.V = 10 * static_cast<std::uint32_t>(h.size());
    lp.seed = 31;
    lp.prefetch_distance = dist;
    RhhhSpaceSaving alg(h, LatticeMode::kRhhh, lp);
    feed_batched(alg, keys, 55);
    const std::uint64_t d =
        digest_nodes(alg, static_cast<std::uint32_t>(h.size())) ^
        digest_set_ordered(h, alg.output(0.01));
    if (first) {
      reference = d;
      first = false;
    } else {
      EXPECT_EQ(d, reference) << "prefetch_distance=" << dist;
    }
  }
}

TEST(BatchEquivalence, WindowedMonitorRotatesOnTheSamePacket) {
  // Batches that straddle epoch boundaries must rotate on exactly the same
  // packet as the per-packet path: epochs_completed, the live partial epoch,
  // and every sealed window digest must agree.
  MonitorConfig cfg;
  cfg.hierarchy = HierarchyKind::kIpv4OneDimBytes;
  cfg.eps = 0.05;
  cfg.delta = 0.1;
  cfg.seed = 7;
  WindowedHhhMonitor serial(cfg, 2000, 3);
  WindowedHhhMonitor batched(cfg, 2000, 3);
  const std::vector<Key128> keys = make_stream(13777, 21);  // partial last epoch
  for (const Key128& k : keys) serial.update(k);
  feed_batched(batched, keys, 67);
  EXPECT_EQ(serial.epochs_completed(), batched.epochs_completed());
  EXPECT_EQ(serial.packets_in_epoch(), batched.packets_in_epoch());
  const Hierarchy& h = serial.hierarchy();
  EXPECT_EQ(digest_set_ordered(h, serial.current(0.01)),
            digest_set_ordered(h, batched.current(0.01)));
  EXPECT_EQ(digest_set_ordered(h, serial.previous(0.01)),
            digest_set_ordered(h, batched.previous(0.01)));
  const Prefix hot{h.bottom(), Key128::from_u32(0x0a000001u)};
  const auto ts = serial.trend(hot);
  const auto tb = batched.trend(hot);
  ASSERT_EQ(ts.size(), tb.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(ts[i].stream_length, tb[i].stream_length);
    EXPECT_EQ(ts[i].estimate, tb[i].estimate);
  }
}

TEST(BatchEquivalence, WeightedUpdatesInterleaveWithBatches) {
  // update_weighted stays consistent when interleaved with batched ingest:
  // both orderings consume the same draw sequence.
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.01;
  lp.delta = 0.05;
  lp.V = 10 * static_cast<std::uint32_t>(h.size());
  lp.seed = 13;
  RhhhSpaceSaving serial(h, LatticeMode::kRhhh, lp);
  RhhhSpaceSaving batched(h, LatticeMode::kRhhh, lp);
  const std::vector<Key128> keys = make_stream(8000, 31);
  const Key128 heavy = Key128::from_u32(0x0a000002u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    serial.update(keys[i]);
    if (i % 1000 == 999) serial.update_weighted(heavy, 5);
  }
  for (std::size_t i = 0; i < keys.size(); i += 1000) {
    batched.update_batch(keys.data() + i, 1000);
    batched.update_weighted(heavy, 5);
  }
  EXPECT_EQ(serial.stream_length(), batched.stream_length());
  EXPECT_EQ(digest_nodes(serial, static_cast<std::uint32_t>(h.size())),
            digest_nodes(batched, static_cast<std::uint32_t>(h.size())));
}

}  // namespace
}  // namespace rhhh
