// Tests for the Space-Saving counter summary, the paper's building block:
// exactness below capacity, the classic error bounds, heavy-hitter recall,
// weighted updates, randomized differential tests against an exact oracle
// across stream shapes, the bulk rebuild and merge kernels, and the key
// index under colliding tags and wrapping probe runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "hh/space_saving.hpp"
#include "trace/zipf.hpp"
#include "util/random.hpp"

namespace rhhh {
namespace {

using K64 = std::uint64_t;

// ------------------------------------------------------- space saving ----

TEST(SpaceSaving, RejectsZeroCapacity) {
  EXPECT_THROW(SpaceSaving<K64>(0), std::invalid_argument);
}

TEST(SpaceSaving, ExactBelowCapacity) {
  SpaceSaving<K64> ss(10);
  for (K64 k = 0; k < 8; ++k) {
    for (K64 i = 0; i <= k; ++i) ss.increment(k);
  }
  EXPECT_EQ(ss.size(), 8u);
  EXPECT_EQ(ss.total(), 36u);
  for (K64 k = 0; k < 8; ++k) {
    EXPECT_EQ(ss.upper(k), k + 1);
    EXPECT_EQ(ss.lower(k), k + 1);
  }
  EXPECT_EQ(ss.upper(99), 0u);  // not full: untracked keys are exact zeros
  EXPECT_EQ(ss.min_bound(), 0u);
}

TEST(SpaceSaving, EvictionInheritsMinAsError) {
  SpaceSaving<K64> ss(2);
  ss.increment(1);
  ss.increment(1);
  ss.increment(2);
  // Full: {1:2, 2:1}. New key 3 evicts the min (2, count 1).
  ss.increment(3);
  EXPECT_FALSE(ss.tracked(2));
  EXPECT_TRUE(ss.tracked(3));
  EXPECT_EQ(ss.upper(3), 2u);  // min(1) + 1
  EXPECT_EQ(ss.lower(3), 1u);  // count - error = 2 - 1
  EXPECT_EQ(ss.upper(2), ss.min_bound());
}

TEST(SpaceSaving, SumOfCountsEqualsTotal) {
  SpaceSaving<K64> ss(16);
  Xoroshiro128 rng(3);
  for (int i = 0; i < 10000; ++i) ss.increment(rng.bounded(100));
  // Stream-summary invariant: counts (with replacement inheritance) sum to N.
  std::uint64_t sum = 0;
  ss.for_each([&](const K64&, std::uint64_t up, std::uint64_t) { sum += up; });
  EXPECT_EQ(sum, ss.total());
  EXPECT_EQ(ss.total(), 10000u);
}

TEST(SpaceSaving, MinBoundIsMinimumCount) {
  SpaceSaving<K64> ss(8);
  Xoroshiro128 rng(4);
  for (int i = 0; i < 5000; ++i) ss.increment(rng.bounded(50));
  std::uint64_t min_count = UINT64_MAX;
  ss.for_each([&](const K64&, std::uint64_t up, std::uint64_t) {
    min_count = std::min(min_count, up);
  });
  EXPECT_EQ(ss.min_bound(), min_count);
}

TEST(SpaceSaving, WeightedUpdates) {
  SpaceSaving<K64> ss(4);
  ss.increment(1, 100);
  ss.increment(2, 50);
  ss.increment(1, 7);
  EXPECT_EQ(ss.upper(1), 107u);
  EXPECT_EQ(ss.lower(1), 107u);
  EXPECT_EQ(ss.total(), 157u);
  // Weighted eviction: fill, then a big newcomer.
  ss.increment(3, 1);
  ss.increment(4, 1);
  ss.increment(5, 1000);  // evicts a min=1 counter
  EXPECT_TRUE(ss.tracked(5));
  EXPECT_EQ(ss.upper(5), 1001u);
  EXPECT_EQ(ss.lower(5), 1000u);
}

TEST(SpaceSaving, ZeroWeightIsNoop) {
  SpaceSaving<K64> ss(4);
  ss.increment(1, 0);
  EXPECT_EQ(ss.total(), 0u);
  EXPECT_EQ(ss.size(), 0u);
}

TEST(SpaceSaving, ClearResets) {
  SpaceSaving<K64> ss(4);
  for (int i = 0; i < 100; ++i) ss.increment(i % 10);
  ss.clear();
  EXPECT_EQ(ss.total(), 0u);
  EXPECT_EQ(ss.size(), 0u);
  EXPECT_EQ(ss.min_bound(), 0u);
  ss.increment(42);
  EXPECT_EQ(ss.upper(42), 1u);
}

TEST(SpaceSaving, HeavyHittersFilter) {
  SpaceSaving<K64> ss(8);
  for (int i = 0; i < 900; ++i) ss.increment(1);
  for (int i = 0; i < 80; ++i) ss.increment(2);
  for (int i = 0; i < 20; ++i) ss.increment(K64(3) + (i % 4));
  const auto hh = ss.heavy_hitters(100);
  ASSERT_EQ(hh.size(), 1u);
  EXPECT_EQ(hh[0].key, 1u);
  EXPECT_GE(hh[0].upper, 900u);
}

TEST(SpaceSaving, EntriesMatchForEach) {
  SpaceSaving<K64> ss(8);
  for (int i = 0; i < 500; ++i) ss.increment(i % 20);
  const auto es = ss.entries();
  EXPECT_EQ(es.size(), ss.size());
  for (const auto& e : es) {
    EXPECT_EQ(ss.upper(e.key), e.upper);
    EXPECT_EQ(ss.lower(e.key), e.lower);
    EXPECT_GE(e.upper, e.lower);
  }
}

TEST(SpaceSaving, Key128Instantiation) {
  SpaceSaving<Key128> ss(4);
  const Key128 a{1, 2};
  const Key128 b{3, 4};
  ss.increment(a, 5);
  ss.increment(b);
  EXPECT_EQ(ss.upper(a), 5u);
  EXPECT_EQ(ss.upper(b), 1u);
}

struct StreamShape {
  std::string name;
  std::uint64_t domain;
  double zipf_s;  // 0 = uniform
};

/// gtest prints a parameter it has no printer for as raw bytes, which for
/// the std::string member means a heap address: print the name instead, so
/// the test names are the same in every build.
void PrintTo(const StreamShape& shape, std::ostream* os) { *os << shape.name; }

class SpaceSavingOracle
    : public ::testing::TestWithParam<std::tuple<StreamShape, std::size_t>> {};

/// Differential property test: for every key (tracked or not),
/// lower <= f <= upper and upper - f <= N/m; every key with f > N/m tracked.
TEST_P(SpaceSavingOracle, BoundsHoldOnRandomStreams) {
  const auto& [shape, capacity] = GetParam();
  SpaceSaving<K64> ss(capacity);
  std::map<K64, std::uint64_t> oracle;
  Xoroshiro128 rng(0xabc + capacity);
  const int kN = 30000;
  ZipfDistribution zipf(shape.domain, shape.zipf_s > 0 ? shape.zipf_s : 1.0);
  for (int i = 0; i < kN; ++i) {
    const K64 k = shape.zipf_s > 0
                      ? zipf(rng)
                      : rng.bounded(static_cast<std::uint32_t>(shape.domain));
    ss.increment(k);
    ++oracle[k];
  }
  const std::uint64_t err_bound = ss.total() / capacity;
  for (const auto& [k, f] : oracle) {
    EXPECT_LE(ss.lower(k), f) << shape.name << " key " << k;
    EXPECT_GE(ss.upper(k), f) << shape.name << " key " << k;
    EXPECT_LE(ss.upper(k) - f, err_bound) << shape.name << " key " << k;
    if (f > err_bound) {
      EXPECT_TRUE(ss.tracked(k)) << shape.name << " heavy key " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpaceSavingOracle,
    ::testing::Combine(
        ::testing::Values(StreamShape{"zipf1.2-small", 200, 1.2},
                          StreamShape{"zipf0.8-large", 5000, 0.8},
                          StreamShape{"uniform-small", 64, 0.0},
                          StreamShape{"uniform-large", 4000, 0.0},
                          StreamShape{"zipf1.5-huge", 100000, 1.5}),
        ::testing::Values(std::size_t{4}, std::size_t{32}, std::size_t{256})),
    [](const auto& info) {
      std::string n = std::get<0>(info.param).name + "_cap" +
                      std::to_string(std::get<1>(info.param));
      for (char& c : n) {
        if (c == '.' || c == '-') c = '_';
      }
      return n;
    });

/// The same differential check with weighted updates.
TEST(SpaceSaving, WeightedOracle) {
  SpaceSaving<K64> ss(32);
  std::map<K64, std::uint64_t> oracle;
  Xoroshiro128 rng(77);
  for (int i = 0; i < 5000; ++i) {
    const K64 k = rng.bounded(300);
    const std::uint64_t w = 1 + rng.bounded(20);
    ss.increment(k, w);
    oracle[k] += w;
  }
  // Weighted error bound: at most total/capacity + max single weight slack;
  // the classic analysis gives error <= min-count <= N/m.
  const std::uint64_t err_bound = ss.total() / 32;
  for (const auto& [k, f] : oracle) {
    EXPECT_LE(ss.lower(k), f);
    EXPECT_GE(ss.upper(k), f);
    EXPECT_LE(ss.upper(k) - f, err_bound);
  }
}

// ------------------------------------------- space saving bulk rebuild ----
//
// load() and merge() rebuild their roster in one linear pass. The result
// must be the structure successive increment(key, count) calls build in an
// empty summary: same counter-array order (for_each order) and the same
// newest-first order within each count bucket, which decides who is
// evicted next. Comparing (key, upper) sequences after a further stream
// that evicts pins both.

/// Distinct-key roster of `n` entries whose counts come from `distinct`
/// values (ties when n > distinct), with random errors.
std::vector<HhEntry<K64>> random_roster(Xoroshiro128& rng, std::size_t n,
                                        std::uint32_t distinct) {
  std::vector<std::uint64_t> counts;
  for (std::uint32_t i = 0; i < distinct; ++i) counts.push_back(1 + rng.bounded(1000));
  std::vector<HhEntry<K64>> out;
  std::map<K64, bool> used;
  while (out.size() < n) {
    const K64 k = rng.bounded(1u << 20);
    if (used[k]) continue;
    used[k] = true;
    const std::uint64_t up = counts[rng.bounded(distinct)];
    out.push_back(HhEntry<K64>{k, up, up - rng.bounded(static_cast<std::uint32_t>(up))});
  }
  return out;
}

/// Unit and weighted arrivals over a universe several times the capacity,
/// including the roster's own keys, so tracked counters move and evict.
void churn(SpaceSaving<K64>& ss, const std::vector<K64>& universe,
           std::uint64_t seed) {
  Xoroshiro128 rng(seed);
  for (std::size_t i = 0; i < 6 * universe.size(); ++i) {
    const K64 k = universe[rng.bounded(static_cast<std::uint32_t>(universe.size()))];
    ss.increment(k, rng.bounded(4) == 0 ? 1 + rng.bounded(50) : 1);
  }
}

void expect_same_keys_and_counts(const SpaceSaving<K64>& a,
                                 const SpaceSaving<K64>& b, const std::string& what) {
  const auto ea = a.entries();
  const auto eb = b.entries();
  ASSERT_EQ(ea.size(), eb.size()) << what;
  for (std::size_t i = 0; i < ea.size(); ++i) {
    ASSERT_EQ(ea[i].key, eb[i].key) << what << " slot " << i;
    ASSERT_EQ(ea[i].upper, eb[i].upper) << what << " slot " << i;
  }
  EXPECT_EQ(a.min_bound(), b.min_bound()) << what;
}

std::vector<K64> universe_of(const std::vector<HhEntry<K64>>& roster, std::size_t cap,
                             std::uint64_t seed) {
  std::vector<K64> u;
  for (const auto& e : roster) u.push_back(e.key);
  Xoroshiro128 rng(seed);
  while (u.size() < 3 * cap) u.push_back((1u << 20) + rng.bounded(1u << 20));
  return u;
}

TEST(SpaceSavingRebuild, LoadMatchesSuccessiveIncrements) {
  Xoroshiro128 rng(0x10AD);
  for (const std::size_t cap : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                std::size_t{300}}) {
    for (const std::size_t n : {std::size_t{1}, cap / 2 + 1, cap}) {
      for (const std::uint32_t distinct : {1u, 2u, 5u, 4000u}) {
        const std::string what = "cap " + std::to_string(cap) + " n " +
                                 std::to_string(n) + " distinct " +
                                 std::to_string(distinct);
        const auto roster = random_roster(rng, n, distinct);
        SpaceSaving<K64> loaded(cap);
        loaded.increment(12345, 9);  // load() must discard prior state
        loaded.load(roster, 777);
        ASSERT_TRUE(loaded.validate()) << what;
        EXPECT_EQ(loaded.total(), 777u) << what;
        EXPECT_EQ(loaded.evictions(), 0u) << what;
        const auto back = loaded.entries();
        ASSERT_EQ(back.size(), roster.size()) << what;
        for (std::size_t i = 0; i < back.size(); ++i) {
          ASSERT_EQ(back[i].key, roster[i].key) << what;
          ASSERT_EQ(back[i].upper, roster[i].upper) << what;
          ASSERT_EQ(back[i].lower, roster[i].lower) << what;
        }

        SpaceSaving<K64> ref(cap);
        for (const auto& e : roster) ref.increment(e.key, e.upper);
        expect_same_keys_and_counts(loaded, ref, what);

        const auto universe = universe_of(roster, cap, cap + n + distinct);
        churn(loaded, universe, n * 31 + distinct);
        churn(ref, universe, n * 31 + distinct);
        ASSERT_TRUE(loaded.validate()) << what;
        EXPECT_GT(ref.evictions(), 0u) << what;
        EXPECT_EQ(loaded.evictions(), ref.evictions()) << what;
        expect_same_keys_and_counts(loaded, ref, what + " after churn");
      }
    }
  }
}

TEST(SpaceSavingRebuild, LoadRejectsDuplicateKeysAndStaysValid) {
  SpaceSaving<K64> ss(8);
  const std::vector<HhEntry<K64>> dup{{1, 5, 5}, {2, 3, 3}, {1, 4, 4}};
  EXPECT_THROW(ss.load(dup, 12), std::invalid_argument);
  EXPECT_TRUE(ss.validate());
  EXPECT_EQ(ss.size(), 0u);
  ss.increment(9, 2);  // still usable
  EXPECT_EQ(ss.upper(9), 2u);
  EXPECT_TRUE(ss.validate());
}

/// The merge as it was written before the linear rebuild: merged bounds,
/// the same sort, then increment() smallest-first into an empty summary.
/// Returns the summary and each kept key's expected lower bound.
std::pair<SpaceSaving<K64>, std::map<K64, std::uint64_t>> reference_merge(
    const SpaceSaving<K64>& a, const SpaceSaving<K64>& b) {
  struct Merged {
    K64 key;
    std::uint64_t count;
    std::uint64_t error;
  };
  std::vector<Merged> merged;
  a.for_each([&](const K64& k, std::uint64_t up, std::uint64_t lo) {
    const std::uint64_t extra = b.tracked(k) ? b.upper(k) : b.min_bound();
    const std::uint64_t extra_err = b.tracked(k) ? b.upper(k) - b.lower(k) : b.min_bound();
    merged.push_back(Merged{k, up + extra, (up - lo) + extra_err});
  });
  b.for_each([&](const K64& k, std::uint64_t up, std::uint64_t lo) {
    if (a.tracked(k)) return;
    merged.push_back(Merged{k, up + a.min_bound(), (up - lo) + a.min_bound()});
  });
  std::sort(merged.begin(), merged.end(),
            [](const Merged& x, const Merged& y) { return x.count > y.count; });
  if (merged.size() > a.capacity()) merged.resize(a.capacity());
  SpaceSaving<K64> out(a.capacity());
  std::map<K64, std::uint64_t> lower;
  for (auto it = merged.rbegin(); it != merged.rend(); ++it) {
    out.increment(it->key, it->count);
    lower[it->key] = it->count - it->error;
  }
  return {std::move(out), std::move(lower)};
}

TEST(SpaceSavingRebuild, MergeMatchesIncrementRebuild) {
  Xoroshiro128 rng(0x3E26E);
  for (const std::size_t cap : {std::size_t{1}, std::size_t{8}, std::size_t{64},
                                std::size_t{256}}) {
    // Key domains below, at and well above the capacity: summaries under
    // capacity (min bound 0), full ones, and merges that truncate.
    for (const std::uint32_t domain :
         {static_cast<std::uint32_t>(cap / 2 + 1), static_cast<std::uint32_t>(cap),
          static_cast<std::uint32_t>(8 * cap)}) {
      for (const std::uint32_t max_w : {1u, 3u, 40u}) {
        const std::string what = "cap " + std::to_string(cap) + " domain " +
                                 std::to_string(domain) + " max_w " +
                                 std::to_string(max_w);
        SpaceSaving<K64> a(cap);
        SpaceSaving<K64> b(cap);
        for (std::size_t i = 0; i < 20 * cap; ++i) {
          a.increment(rng.bounded(domain), 1 + rng.bounded(max_w));
          b.increment(rng.bounded(domain) + domain / 2, 1 + rng.bounded(max_w));
        }
        auto [ref, ref_lower] = reference_merge(a, b);
        SpaceSaving<K64> merged = a;
        merged.merge(b);
        ASSERT_TRUE(merged.validate()) << what;
        EXPECT_EQ(merged.total(), a.total() + b.total()) << what;
        EXPECT_EQ(merged.evictions(), a.evictions() + b.evictions()) << what;
        expect_same_keys_and_counts(merged, ref, what);
        merged.for_each([&](const K64& k, std::uint64_t, std::uint64_t lo) {
          EXPECT_EQ(lo, ref_lower.at(k)) << what << " key " << k;
        });

        std::vector<K64> universe;
        for (std::uint32_t k = 0; k < 3 * cap + 2 * domain; ++k) universe.push_back(k);
        churn(merged, universe, cap + domain + max_w);
        churn(ref, universe, cap + domain + max_w);
        ASSERT_TRUE(merged.validate()) << what;
        expect_same_keys_and_counts(merged, ref, what + " after churn");
      }
    }
  }
}

/// The key type-agnostic part of the kernel check: `merged` (keys mapped to
/// K64 by `id`) must equal reference_merge(a, b) in (key, upper, lower)
/// order, total, evictions and min bound, and be structurally valid.
template <class Key, class Id>
void expect_reference_merge(const SpaceSaving<Key>& merged, const SpaceSaving<K64>& a,
                            const SpaceSaving<K64>& b, Id id, const std::string& what) {
  auto [ref, ref_lower] = reference_merge(a, b);
  ASSERT_TRUE(merged.validate()) << what;
  const auto got = merged.entries();
  const auto want = ref.entries();
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(id(got[i].key), want[i].key) << what << " slot " << i;
    ASSERT_EQ(got[i].upper, want[i].upper) << what << " slot " << i;
    ASSERT_EQ(got[i].lower, ref_lower.at(want[i].key)) << what << " slot " << i;
  }
  EXPECT_EQ(merged.total(), a.total() + b.total()) << what;
  EXPECT_EQ(merged.evictions(), a.evictions() + b.evictions()) << what;
  EXPECT_EQ(merged.min_bound(), ref.min_bound()) << what;
}

TEST(SpaceSavingRebuild, MergeKernelEdgeCases) {
  constexpr std::size_t kCap = 64;  // > 16: std::sort leaves insertion sort
  const auto id64 = [](K64 k) { return k; };
  const auto fill = [](SpaceSaving<K64>& ss, std::uint64_t seed, std::uint32_t domain,
                       std::uint32_t max_w, std::size_t n) {
    Xoroshiro128 rng(seed);
    for (std::size_t i = 0; i < n; ++i) ss.increment(rng.bounded(domain), 1 + rng.bounded(max_w));
  };
  const SpaceSaving<K64> empty(kCap);

  // Self-merge: every key matches itself; counts double.
  SpaceSaving<K64> a(kCap);
  fill(a, 1, 3 * kCap, 5, 20 * kCap);
  SpaceSaving<K64> self = a;
  self.merge(self);
  expect_reference_merge(self, a, a, id64, "self");

  // One side empty, either way round.
  SpaceSaving<K64> into_empty = empty;
  into_empty.merge(a);
  expect_reference_merge(into_empty, empty, a, id64, "into empty");
  SpaceSaving<K64> from_empty = a;
  from_empty.merge(empty);
  expect_reference_merge(from_empty, a, empty, id64, "from empty");

  // A roster below capacity (min bound 0) into a full summary, and back.
  SpaceSaving<K64> part(kCap);
  fill(part, 2, 3 * kCap, 5, kCap / 2);
  ASSERT_LT(part.size(), kCap);
  SpaceSaving<K64> full_first = a;
  full_first.merge(part);
  expect_reference_merge(full_first, a, part, id64, "partial roster");
  SpaceSaving<K64> part_first = part;
  part_first.merge(a);
  expect_reference_merge(part_first, part, a, id64, "partial summary");

  // Both full, domain about the capacity, unit weights: count ties
  // everywhere, so the tie order of the sort decides the layout.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SpaceSaving<K64> x(kCap);
    SpaceSaving<K64> y(kCap);
    fill(x, 10 + seed, kCap + 4, 1, 30 * kCap);
    fill(y, 20 + seed, kCap + 4, 1, 30 * kCap);
    ASSERT_EQ(x.size(), kCap);
    ASSERT_EQ(y.size(), kCap);
    SpaceSaving<K64> m = x;
    m.merge(y);
    expect_reference_merge(m, x, y, id64, "ties seed " + std::to_string(seed));
  }

  // Mostly disjoint full summaries: the merge truncates 2 * kCap to kCap.
  SpaceSaving<K64> lo(kCap);
  SpaceSaving<K64> hi(kCap);
  fill(lo, 30, 8 * kCap, 3, 20 * kCap);
  Xoroshiro128 rng(31);
  for (std::size_t i = 0; i < 20 * kCap; ++i) {
    hi.increment(8 * kCap + rng.bounded(8 * kCap), 1 + rng.bounded(3));
  }
  SpaceSaving<K64> truncated = lo;
  truncated.merge(hi);
  ASSERT_EQ(truncated.size(), kCap);
  expect_reference_merge(truncated, lo, hi, id64, "truncating");

  // Key128: the same streams under a bijective key map. Layout does not
  // depend on the key hash, so the K64 reference applies.
  const auto to128 = [](K64 k) { return Key128{k * 0x9e3779b97f4a7c15ULL, ~k}; };
  const auto id128 = [](const Key128& k) { return ~k.lo; };
  SpaceSaving<K64> p(kCap);
  SpaceSaving<K64> q(kCap);
  SpaceSaving<Key128> p128(kCap);
  SpaceSaving<Key128> q128(kCap);
  Xoroshiro128 krng(40);
  for (std::size_t i = 0; i < 20 * kCap; ++i) {
    const K64 k = krng.bounded(2 * kCap);
    p.increment(k);
    p128.increment(to128(k));
    const K64 j = kCap + krng.bounded(2 * kCap);
    q.increment(j);
    q128.increment(to128(j));
  }
  p128.merge(q128);
  expect_reference_merge(p128, p, q, id128, "Key128");
}

TEST(SpaceSavingRebuild, MergeRejectsRepeatedRosterKeysUnchanged) {
  SpaceSaving<K64> ss(4);
  ss.increment(1, 5);
  ss.increment(2, 3);
  const auto before = ss.entries();
  // A repeated key this summary holds, then one it does not hold.
  for (const std::vector<HhEntry<K64>>& dup :
       {std::vector<HhEntry<K64>>{{1, 2, 2}, {7, 1, 1}, {1, 4, 4}},
        std::vector<HhEntry<K64>>{{8, 2, 2}, {7, 1, 1}, {8, 1, 1}}}) {
    EXPECT_THROW(ss.merge(Roster<K64>{dup, 9, 0, 4}), std::invalid_argument);
    ASSERT_TRUE(ss.validate());
    const auto after = ss.entries();
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t i = 0; i < after.size(); ++i) {
      EXPECT_EQ(after[i].key, before[i].key);
      EXPECT_EQ(after[i].upper, before[i].upper);
    }
    EXPECT_EQ(ss.total(), 8u);
  }
}

// ------------------------------------------------- space saving index ----
//
// The key index is a robin-hood table of 8-byte {tag, counter} slots, the
// tag being the low 32 bits of the key hash. Two test hashes stress it:
// TagCollideHash gives the keys four tags, so nearly every probe matches a
// tag and the key compare decides; EndHomeHash homes every key on the last
// slot of any table up to 256 slots, so probe runs wrap around the end. The
// index never decides output, so either must give the default hash's
// answers op for op.

struct TagCollideHash {
  [[nodiscard]] std::uint64_t operator()(const Key128& k) const noexcept {
    return 0xabc00000u + (k.lo & 3);
  }
};

struct EndHomeHash {
  [[nodiscard]] std::uint64_t operator()(const Key128& k) const noexcept {
    return Key128Hash{}(k) << 32 | (k.lo & 7) << 8 | 0xffu;
  }
};

/// One summary's observable state, flattened: for_each() order with both
/// bounds, upper()/lower()/tracked() over `probes`, min_bound(), total(),
/// evictions() and validate().
template <class SS>
std::vector<std::uint64_t> observe(const SS& ss, const std::vector<Key128>& probes) {
  std::vector<std::uint64_t> out;
  ss.for_each([&](const Key128& k, std::uint64_t up, std::uint64_t lo) {
    out.insert(out.end(), {k.hi, k.lo, up, lo});
  });
  for (const Key128& k : probes) {
    out.insert(out.end(), {ss.upper(k), ss.lower(k), std::uint64_t{ss.tracked(k)}});
  }
  out.insert(out.end(), {ss.min_bound(), ss.total(), ss.evictions(),
                         std::uint64_t{ss.validate()}});
  return out;
}

/// A scripted stream through one SpaceSaving<Key128, Hash>: unit and
/// weighted increments over a universe three times the capacity
/// (evictions), a merge(Roster) with overlapping keys, a roster repeating
/// a key (merge and load must throw), a load() of an unsorted roster and a
/// clear(), each followed by more increments. Returns the observed state
/// after every operation.
template <class Hash>
std::vector<std::vector<std::uint64_t>> index_script(std::size_t cap,
                                                     std::uint64_t seed) {
  std::vector<Key128> universe;
  for (std::uint64_t i = 0; i < 3 * cap + 4; ++i) universe.push_back(Key128{i % 3, 0x1000 + 7 * i});
  Xoroshiro128 rng(seed);
  SpaceSaving<Key128, Hash> ss(cap);
  std::vector<std::vector<std::uint64_t>> trace;
  const auto snap = [&] { trace.push_back(observe(ss, universe)); };
  const auto pick = [&] {
    return universe[rng.bounded(static_cast<std::uint32_t>(universe.size()))];
  };
  const auto churn = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      ss.increment(pick(), rng.bounded(4) == 0 ? 1 + rng.bounded(20) : 1);
      snap();
    }
  };

  churn(8 * cap + 8);
  SpaceSaving<Key128> other(cap);  // default hash: its roster order is the same either way
  for (std::size_t i = 0; i < 4 * cap; ++i) other.increment(pick(), 1 + rng.bounded(3));
  const auto roster = other.entries();
  ss.merge(Roster<Key128>{roster, other.total(), other.evictions(), other.capacity()});
  snap();
  churn(4 * cap);

  std::vector<HhEntry<Key128>> dup = ss.entries();
  dup.push_back(dup.front());
  EXPECT_THROW(ss.merge(Roster<Key128>{dup, 1, 0, dup.size()}), std::invalid_argument);
  snap();
  dup.assign(2, HhEntry<Key128>{Key128{9, 9}, 1, 1});  // a key no one holds, twice
  EXPECT_THROW(ss.merge(Roster<Key128>{dup, 2, 0, cap}), std::invalid_argument);
  snap();

  std::vector<HhEntry<Key128>> load;
  for (std::size_t i = 0; i < cap; ++i) {
    const std::uint64_t up = 1 + rng.bounded(40);  // unsorted, with ties
    load.push_back(HhEntry<Key128>{universe[universe.size() - 1 - 2 * i], up,
                                   up - rng.bounded(static_cast<std::uint32_t>(up))});
  }
  ss.load(load, 1000);
  snap();
  churn(4 * cap);
  if (cap > 1) {
    dup = load;
    dup.back() = dup.front();
    EXPECT_THROW(ss.load(dup, 1), std::invalid_argument);  // leaves it cleared
    snap();
    churn(2 * cap);
  }

  ss.clear();
  snap();
  churn(4 * cap);
  return trace;
}

TEST(SpaceSavingIndex, TagCollisionsMatchDefaultHash) {
  for (const std::size_t cap : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    const auto ref = index_script<KeyHash<Key128>>(cap, 0x7A9 + cap);
    const auto got = index_script<TagCollideHash>(cap, 0x7A9 + cap);
    ASSERT_EQ(got.size(), ref.size()) << "cap " << cap;
    for (std::size_t op = 0; op < ref.size(); ++op) {
      ASSERT_EQ(ref[op].back(), 1u) << "cap " << cap << " op " << op << ": validate()";
      ASSERT_EQ(got[op], ref[op]) << "cap " << cap << " op " << op;
    }
  }
}

TEST(SpaceSavingIndex, TinyTablesWrapAroundTheEnd) {
  // Capacities 1-4 get an 8-slot table and 5 a 16-slot one; every
  // EndHomeHash key homes on the last slot, so its runs wrap to slot 0.
  for (std::size_t cap = 1; cap <= 5; ++cap) {
    const auto ref = index_script<KeyHash<Key128>>(cap, 0xE0D + cap);
    const auto got = index_script<EndHomeHash>(cap, 0xE0D + cap);
    ASSERT_EQ(got.size(), ref.size()) << "cap " << cap;
    for (std::size_t op = 0; op < ref.size(); ++op) {
      ASSERT_EQ(ref[op].back(), 1u) << "cap " << cap << " op " << op << ": validate()";
      ASSERT_EQ(got[op].back(), 1u) << "cap " << cap << " op " << op << ": validate()";
      ASSERT_EQ(got[op], ref[op]) << "cap " << cap << " op " << op;
    }
  }
}

TEST(SpaceSavingIndex, MemoryBytesPricesTheAllocatedArrays) {
  // 2,001 counters (eps = 0.001): 48-byte counters, 2,002 24-byte buckets
  // and 4,096 8-byte index slots.
  SpaceSaving<Key128> ss(2001);
  EXPECT_EQ(ss.memory_bytes(), 2001u * 48 + 2002u * 24 + 4096u * 8);
  EXPECT_EQ(ss.memory_bytes(), 176'864u);
  for (std::uint64_t i = 0; i < 5000; ++i) ss.increment(Key128::from_u64(i % 3001));
  ss.clear();
  EXPECT_EQ(ss.memory_bytes(), 176'864u);  // nothing grows or shrinks
}

}  // namespace
}  // namespace rhhh
