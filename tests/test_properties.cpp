// Cross-cutting property and invariant tests: weighted/unitary equivalence,
// determinism under seeding, output-set invariants, exhaustive lattice
// algebra, and self-consistency of the exact ground truth -- the "laws"
// the system must satisfy on arbitrary inputs rather than hand-picked ones.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "eval/ground_truth.hpp"
#include "eval/metrics.hpp"
#include "hhh/lattice_hhh.hpp"
#include "net/ipv4.hpp"
#include "trace/trace_gen.hpp"
#include "util/random.hpp"

namespace rhhh {
namespace {

// -------------------------------------------- weighted == repeated unit ----

/// For the deterministic MST lattice, update_weighted(k, w) must be
/// indistinguishable from w repetitions of update(k).
TEST(WeightedEquivalence, MstWeightedEqualsRepeatedUnits) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.02;
  RhhhSpaceSaving a(h, LatticeMode::kMst, lp);
  RhhhSpaceSaving b(h, LatticeMode::kMst, lp);
  Xoroshiro128 rng(31);
  for (int i = 0; i < 3000; ++i) {
    const Key128 k = Key128::from_pair(rng.bounded(64), rng.bounded(64));
    const std::uint64_t w = 1 + rng.bounded(9);
    a.update_weighted(k, w);
    for (std::uint64_t j = 0; j < w; ++j) b.update(k);
  }
  ASSERT_EQ(a.stream_length(), b.stream_length());
  const HhhSet oa = a.output(0.01);
  const HhhSet ob = b.output(0.01);
  ASSERT_EQ(oa.size(), ob.size());
  for (const HhhCandidate& c : oa) {
    const HhhCandidate* d = ob.find(c.prefix);
    ASSERT_NE(d, nullptr) << h.format(c.prefix);
    EXPECT_DOUBLE_EQ(c.f_hi, d->f_hi);
    EXPECT_DOUBLE_EQ(c.f_lo, d->f_lo);
  }
}

// ---------------------------------------------------------- determinism ----

TEST(Determinism, RhhhSameSeedSameOutput) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.05;
  lp.seed = 77;
  RhhhSpaceSaving a(h, LatticeMode::kRhhh, lp);
  RhhhSpaceSaving b(h, LatticeMode::kRhhh, lp);
  TraceGenerator ga(trace_preset("chicago15"));
  TraceGenerator gb(trace_preset("chicago15"));
  for (int i = 0; i < 100000; ++i) {
    a.update(h.key_of(ga.next()));
    b.update(h.key_of(gb.next()));
  }
  EXPECT_EQ(a.updates_performed(), b.updates_performed());
  const HhhSet oa = a.output(0.05);
  const HhhSet ob = b.output(0.05);
  ASSERT_EQ(oa.size(), ob.size());
  for (const HhhCandidate& c : oa) EXPECT_TRUE(ob.contains(c.prefix));
}

TEST(Determinism, DifferentSeedsDifferentSampling) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.05;
  lp.seed = 1;
  LatticeParams lp2 = lp;
  lp2.seed = 2;
  lp.V = lp2.V = 250;  // sparse sampling so divergence is visible
  RhhhSpaceSaving a(h, LatticeMode::kRhhh, lp);
  RhhhSpaceSaving b(h, LatticeMode::kRhhh, lp2);
  for (int i = 0; i < 10000; ++i) {
    a.update(Key128::from_pair(1, 2));
    b.update(Key128::from_pair(1, 2));
  }
  EXPECT_NE(a.instance(0).total(), b.instance(0).total());
}

// ------------------------------------------------- output-set invariants ----

/// Every returned candidate must carry c_hat >= theta*N, f_lo <= f_est <=
/// f_hi, and a prefix whose key is properly masked for its node.
class OutputInvariants : public ::testing::TestWithParam<int> {};

TEST_P(OutputInvariants, HoldOnRandomStreams) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.02;
  lp.seed = static_cast<std::uint64_t>(GetParam());
  RhhhSpaceSaving alg(h, GetParam() % 2 == 0 ? LatticeMode::kRhhh : LatticeMode::kMst,
                      lp);
  TraceGenerator gen(trace_preset(trace_preset_names()[static_cast<std::size_t>(
      GetParam()) % 4]));
  for (int i = 0; i < 150000; ++i) alg.update(h.key_of(gen.next()));
  const double theta = 0.03;
  const HhhSet out = alg.output(theta);
  const double thresh = theta * static_cast<double>(alg.stream_length());
  for (const HhhCandidate& c : out) {
    EXPECT_GE(c.c_hat, thresh);
    EXPECT_LE(c.f_lo, c.f_hi);
    EXPECT_GE(c.f_est, c.f_lo);
    EXPECT_LE(c.f_est, c.f_hi);
    EXPECT_EQ(c.prefix.key, h.mask_key(c.prefix.node, c.prefix.key))
        << "keys must be pre-masked";
  }
}

INSTANTIATE_TEST_SUITE_P(Streams, OutputInvariants, ::testing::Range(0, 8));

TEST(OutputInvariants, ThetaAboveOneYieldsEmptyForDeterministic) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  auto mst = make_mst(h);
  for (int i = 0; i < 1000; ++i) mst->update(Key128::from_u32(1));
  EXPECT_TRUE(mst->output(1.01).empty());
  EXPECT_EQ(mst->output(1.0).size(), 1u);  // exactly-N prefix chain head
}

/// Lowering theta never removes... (not true in general for conditioned
/// sets) -- but the *fully-general* prefix (*,*) must appear whenever the
/// uncovered residue reaches theta*N, and output(0) contains every tracked
/// prefix's maximal chain. Check the cheap directional property: the
/// output at theta=0 is a superset of the output at any higher theta for
/// deterministic MST on a fixed stream.
TEST(OutputInvariants, ZeroThetaIsSuperset) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.01;
  RhhhSpaceSaving mst(h, LatticeMode::kMst, lp);
  TraceGenerator gen(trace_preset("sanjose13"));
  for (int i = 0; i < 50000; ++i) mst.update(h.key_of(gen.next()));
  const HhhSet all = mst.output(0.0);
  for (const HhhCandidate& c : mst.output(0.05)) {
    EXPECT_TRUE(all.contains(c.prefix)) << h.format(c.prefix);
  }
}

// ------------------------------------------------ exact-truth consistency ----

/// Definition 8 self-consistency on random streams: every member of the
/// exact HHH set has exact conditioned frequency >= theta*N w.r.t. the
/// *final* set minus more-general members... the directly checkable law:
/// no heavy prefix outside the set still has C_{q|P} >= theta*N (zero
/// coverage errors against itself), and every member's recorded c_hat is
/// its conditioned frequency at admission (>= theta*N).
class TruthConsistency : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TruthConsistency, ComputeIsSelfConsistent) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  ExactHhh truth(h);
  Xoroshiro128 rng(GetParam());
  // Structured random stream: a few planted aggregates + noise.
  const int kN = 30000;
  for (int i = 0; i < kN; ++i) {
    const std::uint32_t roll = rng.bounded(10);
    if (roll < 3) {
      truth.add(Key128::from_pair(ipv4(10, 1, 0, 0) | rng.bounded(1 << 10),
                                  ipv4(99, 9, 9, 9)));
    } else if (roll < 5) {
      truth.add(Key128::from_pair(ipv4(20, 2, 2, 2),
                                  ipv4(50, 5, 0, 0) | rng.bounded(1 << 12)));
    } else {
      truth.add(Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
    }
  }
  const double theta = 0.05;
  const HhhSet set = truth.compute(theta);
  const double thresh = theta * static_cast<double>(truth.stream_length());
  for (const HhhCandidate& c : set) {
    EXPECT_GE(c.c_hat, thresh) << h.format(c.prefix);
    EXPECT_GE(c.f_est, c.c_hat) << "f >= conditioned frequency";
  }
  // Zero coverage errors against itself (Definition 9 coverage with the
  // exact conditioned frequencies).
  const CoverageReport rep = coverage_errors(truth, set, theta);
  EXPECT_EQ(rep.misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TruthConsistency,
                         ::testing::Values(3, 17, 2024, 99999));

// ------------------------------------------------- exhaustive lattice laws ----

/// Over the full 5x5 byte lattice with a fixed underlying key: glb really
/// is the *greatest* lower bound (any common descendant is generalized by
/// it), checked for all node pairs exhaustively.
TEST(LatticeLaws, GlbIsGreatestExhaustive) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  const Key128 key = Key128::from_pair(ipv4(1, 2, 3, 4), ipv4(5, 6, 7, 8));
  for (std::uint32_t a = 0; a < h.size(); ++a) {
    for (std::uint32_t b = 0; b < h.size(); ++b) {
      const Prefix pa{a, h.mask_key(a, key)};
      const Prefix pb{b, h.mask_key(b, key)};
      const auto q = h.glb(pa, pb);
      ASSERT_TRUE(q.has_value());
      EXPECT_TRUE(h.generalizes(pa, *q));
      EXPECT_TRUE(h.generalizes(pb, *q));
      for (std::uint32_t c = 0; c < h.size(); ++c) {
        const Prefix pc{c, h.mask_key(c, key)};
        if (h.generalizes(pa, pc) && h.generalizes(pb, pc)) {
          EXPECT_TRUE(h.generalizes(*q, pc)) << "common descendant not under glb";
        }
      }
    }
  }
}

/// Node levels partition the lattice and parents sit exactly one level up
/// along every generalization cover relation.
TEST(LatticeLaws, LevelsArePartition) {
  for (const Hierarchy& h :
       {Hierarchy::ipv4_2d(Granularity::kByte), Hierarchy::ipv4_1d(Granularity::kBit),
        Hierarchy::ipv6_1d(Granularity::kByte)}) {
    std::size_t total = 0;
    for (int l = 0; l <= h.depth(); ++l) {
      for (const std::uint32_t n : h.nodes_at_level(l)) {
        EXPECT_EQ(h.node(n).level, l);
        ++total;
      }
    }
    EXPECT_EQ(total, h.size());
  }
}

/// The sum of instance totals equals the number of performed updates for
/// every lattice mode (no update lost or double-counted).
TEST(LatticeLaws, UpdateAccounting) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  for (const LatticeMode mode :
       {LatticeMode::kRhhh, LatticeMode::kMst, LatticeMode::kSampledMst}) {
    LatticeParams lp;
    lp.eps = 0.05;
    lp.V = mode == LatticeMode::kMst ? 0 : 100;
    RhhhSpaceSaving alg(h, mode, lp);
    TraceGenerator gen(trace_preset("chicago16"));
    for (int i = 0; i < 50000; ++i) alg.update(h.key_of(gen.next()));
    std::uint64_t sum = 0;
    for (std::uint32_t d = 0; d < h.size(); ++d) sum += alg.instance(d).total();
    EXPECT_EQ(sum, alg.updates_performed()) << to_string(mode);
  }
}

}  // namespace
}  // namespace rhhh
