// Tests for the library extensions beyond the paper's core evaluation:
// mergeable summaries (the Section 7 multi-device story), the log-scale
// latency histogram, and the structural validators under randomized stress.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "hh/space_saving.hpp"
#include "hhh/lattice_hhh.hpp"
#include "net/ipv4.hpp"
#include "stats/histogram.hpp"
#include "trace/trace_gen.hpp"
#include "trace/zipf.hpp"
#include "util/random.hpp"

namespace rhhh {
namespace {

using K64 = std::uint64_t;

// ------------------------------------------------- space-saving merge ----

TEST(SpaceSavingMerge, DisjointStreamsAdd) {
  SpaceSaving<K64> a(8);
  SpaceSaving<K64> b(8);
  a.increment(1, 100);
  a.increment(2, 50);
  b.increment(3, 70);
  a.merge(b);
  EXPECT_EQ(a.total(), 220u);
  EXPECT_GE(a.upper(1), 100u);
  EXPECT_LE(a.lower(1), 100u);
  EXPECT_GE(a.upper(3), 70u);
  EXPECT_TRUE(a.validate());
}

TEST(SpaceSavingMerge, OverlappingKeysSum) {
  SpaceSaving<K64> a(8);
  SpaceSaving<K64> b(8);
  for (int i = 0; i < 60; ++i) a.increment(7);
  for (int i = 0; i < 40; ++i) b.increment(7);
  a.merge(b);
  EXPECT_EQ(a.upper(7), 100u);
  EXPECT_EQ(a.lower(7), 100u);
}

TEST(SpaceSavingMerge, EmptyOtherIsNoop) {
  SpaceSaving<K64> a(4);
  SpaceSaving<K64> b(4);
  a.increment(1, 10);
  a.merge(b);
  EXPECT_EQ(a.total(), 10u);
  EXPECT_EQ(a.upper(1), 10u);
  EXPECT_TRUE(a.validate());
}

/// Property: after merging two independent streams, the merged bounds must
/// bracket the true combined frequency for every key, with error <= the
/// combined 2N/m budget.
class MergeOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MergeOracle, BoundsBracketCombinedStream) {
  const std::size_t cap = 64;
  SpaceSaving<K64> a(cap);
  SpaceSaving<K64> b(cap);
  std::map<K64, std::uint64_t> oracle;
  Xoroshiro128 rng(GetParam());
  ZipfDistribution zipf(500, 1.1);
  for (int i = 0; i < 20000; ++i) {
    const K64 k = zipf(rng);
    if (rng.bounded(2) == 0) {
      a.increment(k);
    } else {
      b.increment(k);
    }
    ++oracle[k];
  }
  a.merge(b);
  EXPECT_TRUE(a.validate());
  EXPECT_EQ(a.total(), 20000u);
  const std::uint64_t budget = 2 * a.total() / cap;
  for (const auto& [k, f] : oracle) {
    EXPECT_GE(a.upper(k) + budget, f) << k;  // upper covers f (with margin)
    EXPECT_LE(a.lower(k), f) << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeOracle, ::testing::Values(1, 7, 99, 12345));

TEST(LatticeMerge, TwoSwitchesFindGlobalAggregate) {
  // Two "switches" each see 15% of their local traffic toward one /16
  // aggregate -- individually below a 25% threshold, globally... still 15%.
  // The interesting case: switch A sees hot prefix X, switch B sees hot
  // prefix Y; the merged instance must report both.
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.02;
  lp.delta = 0.05;
  RhhhSpaceSaving sw_a(h, LatticeMode::kRhhh, lp);
  LatticeParams lp_b = lp;
  lp_b.seed = 2;
  RhhhSpaceSaving sw_b(h, LatticeMode::kRhhh, lp_b);

  const Key128 hot_a = Key128::from_pair(ipv4(10, 1, 2, 3), ipv4(99, 1, 1, 1));
  const Key128 hot_b = Key128::from_pair(ipv4(20, 5, 6, 7), ipv4(88, 2, 2, 2));
  TraceGenerator gen_a(trace_preset("chicago15"));
  TraceGenerator gen_b(trace_preset("sanjose13"));
  Xoroshiro128 rng(3);
  const int kN = 300000;
  for (int i = 0; i < kN; ++i) {
    sw_a.update(rng.bounded(10) < 4 ? hot_a : h.key_of(gen_a.next()));
    sw_b.update(rng.bounded(10) < 4 ? hot_b : h.key_of(gen_b.next()));
  }
  sw_a.merge(sw_b);
  EXPECT_EQ(sw_a.stream_length(), static_cast<std::uint64_t>(2 * kN));
  const HhhSet out = sw_a.output(0.15);
  EXPECT_TRUE(out.contains(Prefix{h.bottom(), hot_a}));
  EXPECT_TRUE(out.contains(Prefix{h.bottom(), hot_b}));
}

TEST(LatticeMerge, MismatchedConfigsThrow) {
  const Hierarchy h2 = Hierarchy::ipv4_2d(Granularity::kByte);
  const Hierarchy h1 = Hierarchy::ipv4_1d(Granularity::kByte);
  LatticeParams lp;
  RhhhSpaceSaving a(h2, LatticeMode::kRhhh, lp);
  RhhhSpaceSaving b(h1, LatticeMode::kRhhh, lp);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  RhhhSpaceSaving c(h2, LatticeMode::kMst, lp);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
  LatticeParams lp_v = lp;
  lp_v.V = 250;
  RhhhSpaceSaving d(h2, LatticeMode::kRhhh, lp_v);
  EXPECT_THROW(a.merge(d), std::invalid_argument);
}

// ---------------------------------------------------------- histogram ----

TEST(LogHistogramTest, SmallValuesExact) {
  LogHistogram hist;
  for (std::uint64_t v = 0; v < 16; ++v) hist.add(v);
  EXPECT_EQ(hist.count(), 16u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 15u);
  EXPECT_EQ(hist.quantile(0.0), 0u);
  EXPECT_EQ(hist.quantile(1.0), 15u);
}

TEST(LogHistogramTest, QuantileAccuracyWithinResolution) {
  LogHistogram hist;
  Xoroshiro128 rng(9);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t v = 20 + (rng() % 1000000);
    hist.add(v);
    values.push_back(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const auto exact = static_cast<double>(
        values[static_cast<std::size_t>(q * (double(values.size()) - 1))]);
    const auto approx = static_cast<double>(hist.quantile(q));
    EXPECT_NEAR(approx / exact, 1.0, 0.10) << "q=" << q;
  }
}

TEST(LogHistogramTest, MeanAndMerge) {
  LogHistogram a;
  LogHistogram b;
  for (int i = 1; i <= 100; ++i) a.add(static_cast<std::uint64_t>(i));
  for (int i = 101; i <= 200; ++i) b.add(static_cast<std::uint64_t>(i));
  EXPECT_DOUBLE_EQ(a.mean(), 50.5);
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_DOUBLE_EQ(a.mean(), 100.5);
  EXPECT_EQ(a.min(), 1u);
  EXPECT_EQ(a.max(), 200u);
}

TEST(LogHistogramTest, ClearResets) {
  LogHistogram h;
  h.add(42);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
}

TEST(LogHistogramTest, ResetIsClearSynonym) {
  LogHistogram h;
  h.add(42);
  h.add(7);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  h.add(5);  // usable again after reset
  EXPECT_EQ(h.quantile(1.0), 5u);
}

TEST(LogHistogramTest, BucketIndexMatchesAddPlacement) {
  // add(v) then quantile must report exactly bucket_upper(bucket_index(v)):
  // the static helpers expose the same bucketing the instance uses.
  for (const std::uint64_t v :
       {0ull, 1ull, 15ull, 16ull, 17ull, 1000ull, 123456789ull}) {
    LogHistogram h;
    h.add(v);
    EXPECT_EQ(h.quantile(0.5), LogHistogram::bucket_upper(
                                   LogHistogram::bucket_index(v)))
        << "v=" << v;
  }
  // Small values are exact; bucket edges are monotone in v.
  EXPECT_EQ(LogHistogram::bucket_upper(LogHistogram::bucket_index(7)), 7u);
  EXPECT_LE(LogHistogram::bucket_index(100), LogHistogram::bucket_index(1000));
}

TEST(LogHistogramTest, AddBucketedFoldsLikeAdd) {
  // Folding pre-bucketed shard data must agree with direct adds up to the
  // bucket-edge resolution min/max carries (exact below 16).
  LogHistogram direct;
  LogHistogram folded;
  std::uint64_t sum = 0;
  for (const std::uint64_t v : {3ull, 3ull, 500ull, 70000ull}) {
    direct.add(v);
    folded.add_bucketed(LogHistogram::bucket_index(v), 1, 0);
    sum += v;
  }
  folded.add_bucketed(0, 0, sum);  // n == 0 folds only the sum contribution
  EXPECT_EQ(folded.count(), direct.count());
  EXPECT_DOUBLE_EQ(folded.mean(), direct.mean());
  EXPECT_EQ(folded.min(), 3u) << "min is exact for small values";
  EXPECT_EQ(folded.quantile(0.5), direct.quantile(0.5));
  // quantile(1.0) returns max_: exact on direct adds, bucket-edge on folds.
  EXPECT_GE(folded.max(), 70000u);
  EXPECT_LE(static_cast<double>(folded.max()), 70000.0 * 1.07);
  // A fold into a merge()d result stays consistent too.
  LogHistogram merged;
  merged.merge(folded);
  merged.merge(direct);
  EXPECT_EQ(merged.count(), 8u);
  EXPECT_EQ(merged.min(), 3u);
}

// ----------------------------------------------------- validators (stress) ----

TEST(Validators, SpaceSavingUnderRandomOps) {
  SpaceSaving<K64> ss(32);
  Xoroshiro128 rng(11);
  for (int step = 0; step < 200; ++step) {
    for (int i = 0; i < 500; ++i) {
      ss.increment(rng.bounded(200), 1 + rng.bounded(4));
    }
    ASSERT_TRUE(ss.validate()) << "after step " << step;
  }
}

}  // namespace
}  // namespace rhhh
