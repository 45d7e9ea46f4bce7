// Tests for the comparison side of the paper's evaluation (baselines/):
// the Partial/Full Ancestry tries -- structure, lossy-counting bounds,
// compression, validators, weighted arrivals -- and the tries' rows of the
// cross-algorithm, monitor-matrix and statistical-conformance checks the
// lattice modes run in test_hhh, test_monitor and test_conformance.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "conformance_points.hpp"
#include "contender.hpp"
#include "core/monitor.hpp"
#include "eval/ground_truth.hpp"
#include "eval/metrics.hpp"
#include "net/ipv4.hpp"
#include "trace/trace_gen.hpp"
#include "trie_hhh.hpp"
#include "util/random.hpp"

namespace rhhh {
namespace {

// -------------------------------------------- paper example, Section 3.1 ----

/// Builds the Section 3.1 stream: 102 packets spread under 101.102.*.* and
/// 6 under 101.103.*.*, each fully-specified item unique.
std::vector<Key128> paper_example_stream() {
  std::vector<Key128> s;
  for (int i = 0; i < 102; ++i) {
    s.push_back(Key128::from_u32(ipv4(101, 102, static_cast<std::uint8_t>(i), 1)));
  }
  for (int i = 0; i < 6; ++i) {
    s.push_back(Key128::from_u32(ipv4(101, 103, static_cast<std::uint8_t>(i), 1)));
  }
  return s;
}

/// theta*N = 100 with N = 108.
constexpr double kPaperTheta = 100.0 / 108.0;

TEST(PaperExample, TrieAlgorithmsAgree) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  for (const AncestryMode mode : {AncestryMode::kFull, AncestryMode::kPartial}) {
    TrieHhh trie(h, mode, 1e-4);  // window larger than the stream: no pruning
    for (const Key128& k : paper_example_stream()) trie.update(k);
    const HhhSet out = trie.output(kPaperTheta);
    ASSERT_EQ(out.size(), 1u) << to_string(mode);
    EXPECT_EQ(h.format(out[0].prefix), "101.102.*.*") << to_string(mode);
  }
}

// ------------------------------------------------------------- TrieHhh ----

TEST(TrieHhhTest, NamesFollowTheMode) {
  const Hierarchy h = make_hierarchy(HierarchyKind::kIpv4TwoDimBytes);
  EXPECT_EQ(TrieHhh(h, AncestryMode::kPartial, 1e-3).name(), "Partial-Ancestry");
  EXPECT_EQ(TrieHhh(h, AncestryMode::kFull, 1e-3).name(), "Full-Ancestry");
}

TEST(TrieHhhTest, Validation) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  EXPECT_THROW(TrieHhh(h, AncestryMode::kFull, 0.0), std::invalid_argument);
  EXPECT_THROW(TrieHhh(h, AncestryMode::kFull, 1.0), std::invalid_argument);
}

TEST(TrieHhhTest, RootAlwaysTracked) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  TrieHhh t(h, AncestryMode::kFull, 0.01);
  EXPECT_EQ(t.tracked_nodes(), 1u);
  t.update(Key128::from_u32(ipv4(1, 2, 3, 4)));
  EXPECT_GT(t.tracked_nodes(), 1u);
}

TEST(TrieHhhTest, EstimateIndexKeepsLossyCountingBounds) {
  // estimate() now answers from a lazily rebuilt per-prefix mass index;
  // interleave updates (which dirty the index), compressions and probes,
  // and check every probe against the exact stream counts. Tracked mass
  // never exceeds the true count, so estimate <= f + slack everywhere. On
  // the 1D chain (every lattice node on the canonical chain) full
  // ancestry additionally keeps the classic lossy-counting guarantee: a
  // nonzero estimate upper-bounds f, a zero one means f <= slack. (2D
  // off-chain aggregates can undercount past the slack when compression
  // folds mass to a canonical parent outside their cone -- the documented
  // adaptation caveat, same as output()'s f_hi.)
  for (const bool one_dim : {true, false}) {
    const Hierarchy h = one_dim ? Hierarchy::ipv4_1d(Granularity::kByte)
                                : Hierarchy::ipv4_2d(Granularity::kByte);
    for (const AncestryMode mode : {AncestryMode::kFull, AncestryMode::kPartial}) {
      TrieHhh t(h, mode, 0.02);
      TraceGenerator gen(trace_preset("chicago16"));
      Xoroshiro128 rng(11);
      FlatHashMap<Key128, std::uint64_t, KeyHash<Key128>> exact(1 << 12);
      std::vector<Key128> seen;
      for (int round = 0; round < 6; ++round) {
        for (int i = 0; i < 2000; ++i) {
          const Key128 k = h.key_of(gen.next());
          t.update(k);
          ++exact[k];
          if (seen.size() < 64) seen.push_back(k);
        }
        ASSERT_TRUE(t.validate());
        const double slack = static_cast<double>(t.epoch() - 1);
        for (int probe = 0; probe < 24; ++probe) {
          const Key128 k =
              seen[rng.bounded(static_cast<std::uint32_t>(seen.size()))];
          const auto node = static_cast<std::uint32_t>(
              rng.bounded(static_cast<std::uint32_t>(h.size())));
          const Prefix p{node, h.mask_key(node, k)};
          std::uint64_t f = 0;  // exact mass of p over the stream so far
          exact.for_each([&](const Key128& key, const std::uint64_t& c) {
            if (h.mask_key(node, key) == p.key) f += c;
          });
          const double est = t.estimate(p);
          EXPECT_LE(est, static_cast<double>(f) + slack)
              << to_string(mode) << " " << h.format(p);
          if (one_dim && mode == AncestryMode::kFull) {
            if (est > 0.0) {
              EXPECT_GE(est, static_cast<double>(f)) << h.format(p);
            } else {
              EXPECT_LE(static_cast<double>(f), slack) << h.format(p);
            }
          }
        }
      }
    }
  }
}

TEST(TrieHhhTest, FullAncestryTracksWholePath) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  TrieHhh t(h, AncestryMode::kFull, 1e-4);
  t.update(Key128::from_u32(ipv4(1, 2, 3, 4)));
  // Root + the 4 prefix nodes of the chain.
  EXPECT_EQ(t.tracked_nodes(), 5u);
  TrieHhh p(h, AncestryMode::kPartial, 1e-4);
  p.update(Key128::from_u32(ipv4(1, 2, 3, 4)));
  EXPECT_EQ(p.tracked_nodes(), 2u);  // root + one lazily expanded node (1.*)
  p.update(Key128::from_u32(ipv4(1, 2, 3, 4)));
  EXPECT_EQ(p.tracked_nodes(), 3u);  // the path grows one level per arrival
}

TEST(TrieHhhTest, CompressionBoundsState) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  TrieHhh t(h, AncestryMode::kPartial, 0.01);  // window 100
  Xoroshiro128 rng(5);
  for (int i = 0; i < 50000; ++i) {
    t.update(Key128::from_u32(static_cast<std::uint32_t>(rng())));  // all noise
  }
  EXPECT_GT(t.compressions(), 0u);
  // Lossy-counting style space bound: O(levels/eps).
  EXPECT_LT(t.tracked_nodes(), 5u * 100u * 4u);
}

TEST(TrieHhhTest, MassConservedUnderCompression) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  TrieHhh t(h, AncestryMode::kFull, 0.02);
  Xoroshiro128 rng(6);
  const int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    t.update(Key128::from_u32(static_cast<std::uint32_t>(rng.bounded(1000) * 7919)));
  }
  // The root's subtree total (all g) must equal N: compression rolls mass up
  // but never loses it. Query via output at theta=0: root's f_lo covers all.
  const HhhSet all = t.output(0.0);
  double root_flo = -1;
  for (const HhhCandidate& c : all) {
    if (c.prefix.node == h.top()) root_flo = c.f_lo;
  }
  ASSERT_GE(root_flo, 0.0) << "root must be in a theta=0 output";
  EXPECT_DOUBLE_EQ(root_flo, static_cast<double>(kN));
}

TEST(TrieHhhTest, PlantedHeavyHitterFound2D) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  for (const AncestryMode mode : {AncestryMode::kFull, AncestryMode::kPartial}) {
    TrieHhh t(h, mode, 0.01);
    Xoroshiro128 rng(7);
    const Key128 hot = Key128::from_pair(ipv4(10, 1, 2, 3), ipv4(99, 5, 6, 7));
    for (int i = 0; i < 100000; ++i) {
      if (rng.bounded(10) < 3) {
        t.update(hot);
      } else {
        t.update(Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
      }
    }
    const HhhSet out = t.output(0.2);
    bool covered = false;
    for (const HhhCandidate& c : out) {
      if (h.generalizes(c.prefix, Prefix{h.bottom(), hot})) covered = true;
    }
    EXPECT_TRUE(covered) << to_string(mode);
  }
}

TEST(TrieHhhTest, ClearResets) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  TrieHhh t(h, AncestryMode::kFull, 0.01);
  for (int i = 0; i < 5000; ++i) t.update(Key128::from_u32(42));
  t.clear();
  EXPECT_EQ(t.stream_length(), 0u);
  EXPECT_EQ(t.tracked_nodes(), 1u);
  EXPECT_TRUE(t.output(0.5).empty());
}

// ----------------------------------------------------- validators (stress) ----

TEST(Validators, TrieUnderRandomStreams) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  for (const AncestryMode mode : {AncestryMode::kFull, AncestryMode::kPartial}) {
    TrieHhh t(h, mode, 0.02);
    TraceGenerator gen(trace_preset("chicago16"));
    for (int step = 0; step < 50; ++step) {
      for (int i = 0; i < 2000; ++i) t.update(h.key_of(gen.next()));
      ASSERT_TRUE(t.validate()) << to_string(mode) << " step " << step;
    }
  }
}

TEST(Validators, TrieValidAfterClear) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  TrieHhh t(h, AncestryMode::kFull, 0.01);
  for (int i = 0; i < 10000; ++i) t.update(Key128::from_u32(static_cast<std::uint32_t>(i * 2654435761u)));
  t.clear();
  EXPECT_TRUE(t.validate());
}

// ------------------------------------------------------------ weighted ----

/// Same law for the tries (also deterministic).
TEST(WeightedEquivalence, TrieWeightedEqualsRepeatedUnits) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  for (const AncestryMode mode : {AncestryMode::kFull, AncestryMode::kPartial}) {
    TrieHhh a(h, mode, 0.01);
    TrieHhh b(h, mode, 0.01);
    Xoroshiro128 rng(32);
    for (int i = 0; i < 2000; ++i) {
      const Key128 k = Key128::from_u32(rng.bounded(512) * 7919u);
      const std::uint64_t w = 1 + rng.bounded(4);
      a.update_weighted(k, w);
      for (std::uint64_t j = 0; j < w; ++j) b.update(k);
    }
    ASSERT_EQ(a.stream_length(), b.stream_length()) << to_string(mode);
    const HhhSet oa = a.output(0.02);
    const HhhSet ob = b.output(0.02);
    EXPECT_EQ(oa.size(), ob.size()) << to_string(mode);
    for (const HhhCandidate& c : oa) {
      EXPECT_TRUE(ob.contains(c.prefix)) << to_string(mode) << " " << h.format(c.prefix);
    }
  }
}

// --------------------------------------------------- LatticeContender ----

TEST(LatticeContender, ForwardsToItsLattice) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.05;
  lp.delta = 0.05;
  LatticeContender wrapped(h, LatticeMode::kRhhh, lp);
  LatticeHhh direct(h, LatticeMode::kRhhh, lp);
  TraceGenerator gen(trace_preset("chicago16"));
  for (int i = 0; i < 50000; ++i) {
    const Key128 k = h.key_of(gen.next());
    wrapped.update(k);
    direct.update(k);
  }
  EXPECT_EQ(wrapped.lattice().stream_length(), direct.stream_length());
  EXPECT_EQ(wrapped.name(), direct.name());
  EXPECT_EQ(&wrapped.hierarchy(), &h);
  EXPECT_DOUBLE_EQ(wrapped.psi(), direct.psi());
  const HhhSet a = wrapped.output(0.05);
  const HhhSet b = direct.output(0.05);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].prefix, b[i].prefix);
    EXPECT_DOUBLE_EQ(a[i].f_est, b[i].f_est);
  }
  wrapped.clear();
  EXPECT_TRUE(wrapped.output(0.05).empty());
}

// ------------------------------------------------- cross-algorithm ----

/// The tries' half of CrossAlgorithm.AllAlgorithmsCoverExactHhhs
/// (test_hhh.cpp): on the same skewed stream, every exact HHH must be
/// covered (itself or refined) in each trie's output at a threshold
/// comfortably above the noise floor.
TEST(CrossAlgorithm, TriesCoverExactHhhs) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  const auto packets = [&] {
    std::vector<Key128> keys;
    TraceGenerator g2(trace_preset("sanjose14"));
    keys.reserve(300000);
    for (int i = 0; i < 300000; ++i) keys.push_back(h.key_of(g2.next()));
    return keys;
  }();

  ExactHhh truth(h);
  for (const Key128& k : packets) truth.add(k);
  const double theta = 0.1;
  const HhhSet exact = truth.compute(theta);
  ASSERT_GT(exact.size(), 0u);

  for (const AncestryMode mode : {AncestryMode::kFull, AncestryMode::kPartial}) {
    TrieHhh alg(h, mode, 0.02);
    for (const Key128& k : packets) alg.update(k);
    const HhhSet out = alg.output(theta);
    for (const HhhCandidate& c : exact) {
      bool covered = out.contains(c.prefix);
      // Approximate algorithms may return a descendant that claims the mass;
      // accept any output member generalized by the exact prefix as well.
      if (!covered) {
        for (const HhhCandidate& o : out) {
          if (h.generalizes(c.prefix, o.prefix) ||
              h.generalizes(o.prefix, c.prefix)) {
            covered = true;
            break;
          }
        }
      }
      EXPECT_TRUE(covered) << alg.name() << " missing " << h.format(c.prefix);
    }
  }
}

// ----------------------------------------------------- monitor matrix ----

/// The tries' rows of test_monitor.cpp's smoke sweep: every (hierarchy,
/// ancestry mode) pair ingests a skewed stream and returns a plausible HHH
/// set containing a planted heavy hitter.
class MonitorMatrix
    : public ::testing::TestWithParam<std::tuple<HierarchyKind, AncestryMode>> {};

TEST_P(MonitorMatrix, FindsPlantedHeavyHitter) {
  const auto [hk, mode] = GetParam();
  const Hierarchy h = make_hierarchy(hk);
  TrieHhh trie(h, mode, 0.05);
  // The key HhhMonitor::update(src, dst) builds.
  const auto key_of = [&](Ipv4 src, Ipv4 dst) {
    return h.dims() == 2 ? Key128::from_pair(src, dst) : Key128::from_u32(src);
  };
  TraceGenerator gen(trace_preset("chicago16"));
  const Ipv4 hot_src = ipv4(123, 45, 67, 89);
  const Ipv4 hot_dst = ipv4(98, 76, 54, 32);
  Xoroshiro128 rng(11);
  const int kN = 60000;
  for (int i = 0; i < kN; ++i) {
    if (rng.bounded(2) == 0) {
      trie.update(key_of(hot_src, hot_dst));
    } else {
      const PacketRecord p = gen.next();
      trie.update(key_of(p.src_ip, p.dst_ip));
    }
  }
  const HhhSet out = trie.output(0.4);
  // The planted pair carries ~50%: some returned prefix must generalize it.
  const Key128 hot = key_of(hot_src, hot_dst);
  bool covered = false;
  for (const HhhCandidate& c : out) {
    if (h.generalizes(c.prefix, Prefix{h.bottom(), hot})) covered = true;
  }
  EXPECT_TRUE(covered) << to_string(hk) << "/" << to_string(mode) << " size="
                       << out.size();
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, MonitorMatrix,
    ::testing::Combine(::testing::Values(HierarchyKind::kIpv4OneDimBytes,
                                         HierarchyKind::kIpv4OneDimBits,
                                         HierarchyKind::kIpv4TwoDimBytes),
                       ::testing::Values(AncestryMode::kPartial,
                                         AncestryMode::kFull)),
    [](const auto& info) {
      std::string n = std::string(to_string(std::get<0>(info.param))) + "_" +
                      std::string(to_string(std::get<1>(info.param)));
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

// -------------------------------------------------------- conformance ----

/// The tries' rows of test_conformance.cpp's Theorem 6.11/6.15 check, at
/// the same operating points: deterministic, so zero accuracy errors and
/// zero coverage misses against exact ground truth.
class AncestryConformance : public ::testing::TestWithParam<int> {};

TEST_P(AncestryConformance, TheoremBoundsHoldAtOperatingPoint) {
  const conformance::OperatingPoint& pt = conformance::kPoints[GetParam()];
  SCOPED_TRACE(pt.label);
  const Hierarchy h = make_hierarchy(pt.hierarchy);

  TraceConfig tc = trace_preset(pt.trace);
  tc.seed = pt.seed;
  TraceGenerator gen(tc);
  ExactHhh truth(h);
  std::vector<Key128> keys;
  keys.reserve(pt.n);
  for (std::uint64_t i = 0; i < pt.n; ++i) {
    keys.push_back(h.key_of(gen.next()));
    truth.add(keys.back());
  }

  for (const AncestryMode mode : {AncestryMode::kPartial, AncestryMode::kFull}) {
    TrieHhh alg(h, mode, pt.eps);
    SCOPED_TRACE(std::string(alg.name()));

    for (const Key128& k : keys) alg.update(k);
    ASSERT_EQ(alg.stream_length(), pt.n);

    const HhhSet out = alg.output(pt.theta);
    ASSERT_GT(out.size(), 0u);

    // Theorem 6.11 (accuracy): |f - f_est| <= eps * N.
    const AccuracyReport acc = accuracy_errors(truth, out, pt.eps);
    // Theorem 6.15 (coverage): no heavy conditioned prefix is missed.
    const CoverageReport cov = coverage_errors(truth, out, pt.theta);
    EXPECT_EQ(acc.errors, 0u) << "deterministic algorithm broke the "
                                 "eps*N accuracy bound";
    EXPECT_EQ(cov.misses, 0u) << "deterministic algorithm missed a heavy "
                                 "conditioned prefix";
  }
}

INSTANTIATE_TEST_SUITE_P(
    OperatingPoints, AncestryConformance,
    ::testing::Range(0, static_cast<int>(std::size(conformance::kPoints))),
    [](const auto& info) {
      return std::string(conformance::kPoints[info.param].label);
    });

}  // namespace
}  // namespace rhhh
