// Tests for the HHH algorithms themselves: the conditioned-frequency
// machinery (G(p|P), calcPred), the paper's worked example from Section 3.1,
// MST exactness, RHHH's randomized behaviour (update counting, psi, planted
// heavy hitters, Corollary 6.8), Sampled-MST, the spare-capacity exact
// configuration, and cross-mode agreement. The ancestry tries the paper
// compares against are tested in test_baselines.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <type_traits>
#include <vector>

#include "eval/ground_truth.hpp"
#include "hhh/conditioned.hpp"
#include "hhh/lattice_hhh.hpp"
#include "net/ipv4.hpp"
#include "trace/trace_gen.hpp"
#include "trace/zipf.hpp"
#include "util/random.hpp"

namespace rhhh {
namespace {

// The library has one HHH class and no vtable on its packet path; the old
// interface and backend names are aliases of it.
static_assert(!std::is_polymorphic_v<LatticeHhh>);
static_assert(std::is_same_v<HhhAlgorithm, LatticeHhh>);
static_assert(std::is_same_v<RhhhSpaceSaving, LatticeHhh>);

// ------------------------------------------------------ conditioned ----

TEST(BestGeneralized, PaperExampleFromDefinition2) {
  // p = <142.14.*>, P = {<142.14.13.*>, <142.14.13.14>}:
  // G(p|P) contains only <142.14.13.*>.
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  HhhSet P(h.size());
  const Key128 ip = Key128::from_u32(ipv4(142, 14, 13, 14));
  const Prefix p24{h.node_index(1), h.mask_key(h.node_index(1), ip)};
  const Prefix p32{h.node_index(0), ip};
  P.add(HhhCandidate{p24, 10, 10, 10, 10});
  P.add(HhhCandidate{p32, 5, 5, 5, 5});
  const Prefix p16{h.node_index(2), h.mask_key(h.node_index(2), ip)};
  const auto g = best_generalized(h, p16, P);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(P[g[0]].prefix, p24);
}

TEST(BestGeneralized, UnrelatedPrefixesExcluded) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  HhhSet P(h.size());
  const Key128 other = Key128::from_u32(ipv4(10, 0, 0, 1));
  P.add(HhhCandidate{{h.node_index(1), h.mask_key(h.node_index(1), other)}, 1, 1, 1, 1});
  const Key128 ip = Key128::from_u32(ipv4(142, 14, 13, 14));
  const Prefix p16{h.node_index(2), h.mask_key(h.node_index(2), ip)};
  EXPECT_TRUE(best_generalized(h, p16, P).empty());
}

TEST(CalcPred, OneDimensionSubtractsLowerBounds) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  HhhSet P(h.size());
  const Key128 a = Key128::from_u32(ipv4(142, 14, 1, 1));
  const Key128 b = Key128::from_u32(ipv4(142, 14, 2, 2));
  P.add(HhhCandidate{{h.node_index(1), h.mask_key(h.node_index(1), a)}, 50, 40, 50, 50});
  P.add(HhhCandidate{{h.node_index(1), h.mask_key(h.node_index(1), b)}, 30, 25, 30, 30});
  const Prefix p16{h.node_index(2), h.mask_key(h.node_index(2), a)};
  const auto g = best_generalized(h, p16, P);
  ASSERT_EQ(g.size(), 2u);
  const double r = calc_pred(h, p16, P, g, [](const Prefix&) { return 1e9; });
  EXPECT_DOUBLE_EQ(r, -(40.0 + 25.0));  // glb add-back never fires in 1D
}

TEST(CalcPred, TwoDimensionGlbAddBack) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  const Key128 full = Key128::from_pair(ipv4(1, 2, 3, 4), ipv4(5, 6, 7, 8));
  HhhSet P(h.size());
  // Two overlapping members: (1.2.3.4, 5.6.7.*) and (1.2.3.*, 5.6.7.8).
  const Prefix m1{h.node_index(0, 1), h.mask_key(h.node_index(0, 1), full)};
  const Prefix m2{h.node_index(1, 0), h.mask_key(h.node_index(1, 0), full)};
  P.add(HhhCandidate{m1, 60, 55, 60, 60});
  P.add(HhhCandidate{m2, 40, 35, 40, 40});
  // Candidate parent (1.2.3.*, 5.6.7.*).
  const Prefix p{h.node_index(1, 1), h.mask_key(h.node_index(1, 1), full)};
  const auto g = best_generalized(h, p, P);
  ASSERT_EQ(g.size(), 2u);
  // glb(m1, m2) = the fully-specified pair; its upper estimate is 20.
  const double r = calc_pred(h, p, P, g, [&](const Prefix& q) {
    EXPECT_EQ(q.node, h.bottom());
    EXPECT_EQ(q.key, full);
    return 20.0;
  });
  EXPECT_DOUBLE_EQ(r, -(55.0 + 35.0) + 20.0);
}

TEST(CalcPred, ThirdElementSuppressesAddBack) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  const Key128 full = Key128::from_pair(ipv4(1, 2, 3, 4), ipv4(5, 6, 7, 8));
  HhhSet P(h.size());
  // Three members over the same underlying pair at pairwise-incomparable
  // nodes: (0,2) = (1.2.3.4, 5.6.*), (2,0) = (1.2.*, 5.6.7.8) and
  // (1,1) = (1.2.3.*, 5.6.7.*).
  const Prefix m1{h.node_index(0, 2), h.mask_key(h.node_index(0, 2), full)};
  const Prefix m2{h.node_index(2, 0), h.mask_key(h.node_index(2, 0), full)};
  const Prefix m3{h.node_index(1, 1), h.mask_key(h.node_index(1, 1), full)};
  P.add(HhhCandidate{m1, 60, 50, 60, 60});
  P.add(HhhCandidate{m2, 40, 30, 40, 40});
  P.add(HhhCandidate{m3, 20, 10, 20, 20});
  const Prefix p{h.node_index(2, 2), h.mask_key(h.node_index(2, 2), full)};
  const auto g = best_generalized(h, p, P);
  ASSERT_EQ(g.size(), 3u);
  // glb(m1,m2) = the fully-specified pair, which m3 generalizes -> that pair's
  // add-back is suppressed (Algorithm 3 line 8). glb(m1,m3) = (1.2.3.4,
  // 5.6.7.*) is not generalized by m2; glb(m2,m3) = (1.2.3.*, 5.6.7.8) is not
  // generalized by m1 -> both add back.
  std::vector<Prefix> added;
  const double r = calc_pred(h, p, P, g, [&](const Prefix& q) {
    added.push_back(q);
    return 5.0;
  });
  EXPECT_DOUBLE_EQ(r, -(50.0 + 30.0 + 10.0) + 2 * 5.0);
  ASSERT_EQ(added.size(), 2u);
  for (const Prefix& q : added) {
    EXPECT_NE(q, Prefix(h.bottom(), full)) << "suppressed glb was added back";
  }
}

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

TEST(PaperExample, MstReturnsOnlyTheDeepHhh) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.001;  // plenty of counters: deterministic exact bounds
  RhhhSpaceSaving mst(h, LatticeMode::kMst, lp);
  for (const Key128& k : paper_example_stream()) mst.update(k);
  const HhhSet out = mst.output(kPaperTheta);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(h.format(out[0].prefix), "101.102.*.*");
  // p1 = 101.* has frequency 108 >= 100 but conditioned frequency 6 < 100.
  EXPECT_NEAR(out[0].f_est, 102.0, 1e-9);
}

TEST(PaperExample, ExactGroundTruthMatches) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  ExactHhh truth(h);
  for (const Key128& k : paper_example_stream()) truth.add(k);
  const HhhSet exact = truth.compute(kPaperTheta);
  ASSERT_EQ(exact.size(), 1u);
  EXPECT_EQ(h.format(exact[0].prefix), "101.102.*.*");
  EXPECT_DOUBLE_EQ(exact[0].f_est, 102.0);
  EXPECT_DOUBLE_EQ(exact[0].c_hat, 102.0);
}

// ----------------------------------------------------------- LatticeHhh ----

TEST(LatticeHhhConfig, Validation) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.0;
  EXPECT_THROW(RhhhSpaceSaving(h, LatticeMode::kRhhh, lp), std::invalid_argument);
  lp = {};
  lp.delta = 1.0;
  EXPECT_THROW(RhhhSpaceSaving(h, LatticeMode::kRhhh, lp), std::invalid_argument);
  lp = {};
  lp.V = 3;  // < H = 5
  EXPECT_THROW(RhhhSpaceSaving(h, LatticeMode::kRhhh, lp), std::invalid_argument);
  lp = {};
  lp.r = 0;
  EXPECT_THROW(RhhhSpaceSaving(h, LatticeMode::kRhhh, lp), std::invalid_argument);
  lp = {};
  lp.r = 2;
  EXPECT_THROW(RhhhSpaceSaving(h, LatticeMode::kMst, lp), std::invalid_argument);
}

TEST(LatticeHhhConfig, NamesAndDefaults) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  EXPECT_EQ(make_rhhh(h)->name(), "RHHH");
  EXPECT_EQ(make_10rhhh(h)->name(), "10-RHHH");
  EXPECT_EQ(make_mst(h)->name(), "MST");
  EXPECT_EQ(make_rhhh(h)->V(), 25u);
  EXPECT_EQ(make_10rhhh(h)->V(), 250u);
  LatticeParams lp;
  RhhhSpaceSaving sm(h, LatticeMode::kSampledMst, lp);
  EXPECT_EQ(sm.name(), "Sampled-MST");
}

TEST(LatticeHhhConfig, OverSampleCompensatedCounterCount) {
  // Paper Section 6.1: eps_a = 0.001 with eps_s = 0.001 -> 1001 counters.
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.002;  // split: eps_a = eps_s = 0.001
  RhhhSpaceSaving r(h, LatticeMode::kRhhh, lp);
  EXPECT_EQ(r.counters_per_node(), 1001u);
}

TEST(LatticeHhhConfig, PsiFormula) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.01;
  lp.delta = 0.003;  // delta_s = 0.001
  RhhhSpaceSaving r(h, LatticeMode::kRhhh, lp);
  const double z = z_value(1.0 - 0.0005);
  EXPECT_NEAR(r.psi(), z * 25.0 / (0.005 * 0.005), 1e-6);
  EXPECT_DOUBLE_EQ(make_mst(h)->psi(), 0.0);
  // Corollary 6.8: r updates converge r times faster.
  lp.r = 4;
  RhhhSpaceSaving r4(h, LatticeMode::kRhhh, lp);
  EXPECT_NEAR(r4.psi(), r.psi() / 4.0, 1e-9);
}

TEST(LatticeHhhUpdate, MstUpdatesEveryNode) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  auto mst = make_mst(h);
  for (int i = 0; i < 100; ++i) mst->update(Key128::from_pair(1, 2));
  EXPECT_EQ(mst->stream_length(), 100u);
  EXPECT_EQ(mst->updates_performed(), 100u * 25u);
  // Every node saw every packet.
  for (std::uint32_t d = 0; d < 25; ++d) {
    EXPECT_EQ(mst->instance(d).total(), 100u) << d;
  }
}

TEST(LatticeHhhUpdate, RhhhUpdatesAtMostOneNode) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  auto r = make_rhhh(h);  // V = H: every packet updates exactly one node
  const int kN = 50000;
  for (int i = 0; i < kN; ++i) r->update(Key128::from_pair(1, 2));
  EXPECT_EQ(r->updates_performed(), static_cast<std::uint64_t>(kN));
  // Each node receives ~N/H updates.
  for (std::uint32_t d = 0; d < 25; ++d) {
    EXPECT_NEAR(static_cast<double>(r->instance(d).total()), kN / 25.0,
                5.0 * std::sqrt(kN / 25.0));
  }
}

TEST(LatticeHhhUpdate, TenRhhhSamplesTenPercent) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  auto r = make_10rhhh(h);
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) r->update(Key128::from_pair(1, 2));
  const double frac = static_cast<double>(r->updates_performed()) / kN;
  EXPECT_NEAR(frac, 0.1, 0.01);
  EXPECT_DOUBLE_EQ(r->scale(), 250.0);
}

TEST(LatticeHhhUpdate, MultiUpdateR) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  LatticeParams lp;
  lp.r = 4;
  RhhhSpaceSaving r(h, LatticeMode::kRhhh, lp);
  const int kN = 20000;
  for (int i = 0; i < kN; ++i) r.update(Key128::from_u32(7));
  // r draws per packet with V = H: expect ~4 updates per packet.
  EXPECT_NEAR(static_cast<double>(r.updates_performed()), 4.0 * kN, 0.02 * 4 * kN);
  EXPECT_DOUBLE_EQ(r.scale(), 5.0 / 4.0);
}

TEST(LatticeHhhUpdate, SampledMstBurstUpdates) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  LatticeParams lp;
  lp.V = 250;
  RhhhSpaceSaving s(h, LatticeMode::kSampledMst, lp);
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) s.update(Key128::from_pair(3, 4));
  // Samples w.p. H/V = 0.1, then updates all 25 nodes.
  EXPECT_NEAR(static_cast<double>(s.updates_performed()), 0.1 * kN * 25,
              0.1 * kN * 25 * 0.1);
  EXPECT_DOUBLE_EQ(s.scale(), 10.0);
}

TEST(LatticeHhhUpdate, WeightedCountsTowardN) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  auto mst = make_mst(h);
  mst->update_weighted(Key128::from_u32(1), 500);
  EXPECT_EQ(mst->stream_length(), 500u);
  EXPECT_EQ(mst->instance(0).upper(Key128::from_u32(1)), 500u);
}

TEST(LatticeHhhUpdate, ClearResets) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  auto r = make_rhhh(h);
  for (int i = 0; i < 1000; ++i) r->update(Key128::from_u32(9));
  r->clear();
  EXPECT_EQ(r->stream_length(), 0u);
  EXPECT_EQ(r->updates_performed(), 0u);
  EXPECT_TRUE(r->output(0.1).empty());
}

TEST(LatticeHhhOutput, EmptyStream) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  EXPECT_TRUE(make_rhhh(h)->output(0.01).empty());
}

/// A planted heavy pair must be reported by every lattice algorithm once
/// past its convergence bound.
class PlantedHeavyHitter : public ::testing::TestWithParam<LatticeMode> {};

TEST_P(PlantedHeavyHitter, IsFound) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.05;
  lp.delta = 0.05;
  lp.seed = 99;
  RhhhSpaceSaving alg(h, GetParam(), lp);
  Xoroshiro128 rng(123);
  const Key128 hot = Key128::from_pair(ipv4(10, 1, 2, 3), ipv4(99, 5, 6, 7));
  const int kN = 400000;
  for (int i = 0; i < kN; ++i) {
    if (rng.bounded(10) < 3) {
      alg.update(hot);
    } else {
      alg.update(Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
    }
  }
  const HhhSet out = alg.output(0.2);
  // The fully-specified hot pair (30% of traffic) must appear.
  bool found = false;
  for (const HhhCandidate& c : out) {
    if (c.prefix.key == hot && c.prefix.node == h.bottom()) found = true;
  }
  EXPECT_TRUE(found) << to_string(GetParam()) << " returned " << out.size()
                     << " prefixes";
}

INSTANTIATE_TEST_SUITE_P(Modes, PlantedHeavyHitter,
                         ::testing::Values(LatticeMode::kRhhh, LatticeMode::kMst,
                                           LatticeMode::kSampledMst),
                         [](const auto& info) {
                           return std::string(to_string(info.param)) == "Sampled-MST"
                                      ? "SampledMst"
                                      : std::string(to_string(info.param));
                         });

TEST(LatticeHhhOutput, MstMatchesExactTruthOnSmallStream) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.001;  // capacity far above distinct keys: exact counting
  RhhhSpaceSaving mst(h, LatticeMode::kMst, lp);
  ExactHhh truth(h);
  TraceGenerator gen(trace_preset("chicago16"));
  for (int i = 0; i < 20000; ++i) {
    const PacketRecord p = gen.next();
    const Key128 k = h.key_of(p);
    mst.update(k);
    truth.add(k);
  }
  const double theta = 0.05;
  const HhhSet approx = mst.output(theta);
  const HhhSet exact = truth.compute(theta);
  // With exact per-node counts MST's conservative output must contain every
  // exact HHH (coverage) -- and here bounds are tight, so the sets coincide.
  for (const HhhCandidate& c : exact) {
    EXPECT_TRUE(approx.contains(c.prefix)) << h.format(c.prefix);
  }
  for (const HhhCandidate& c : approx) {
    EXPECT_TRUE(exact.contains(c.prefix)) << h.format(c.prefix);
  }
}

// --------------------------------------------------------------- merge ----

TEST(LatticeMerge, MismatchedConfigurationsThrow) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  LatticeParams lp;
  RhhhSpaceSaving base(h, LatticeMode::kRhhh, lp);

  LatticeParams lp_v = lp;
  lp_v.V = 250;  // unequal V: per-node estimates would not share a scale
  RhhhSpaceSaving other_v(h, LatticeMode::kRhhh, lp_v);
  EXPECT_FALSE(base.mergeable_with(other_v));
  EXPECT_THROW(base.merge(other_v), std::invalid_argument);

  RhhhSpaceSaving other_mode(h, LatticeMode::kMst, lp);
  EXPECT_THROW(base.merge(other_mode), std::invalid_argument);

  LatticeParams lp_r = lp;
  lp_r.r = 2;
  RhhhSpaceSaving other_r(h, LatticeMode::kRhhh, lp_r);
  EXPECT_THROW(base.merge(other_r), std::invalid_argument);

  const Hierarchy h1 = Hierarchy::ipv4_2d(Granularity::kNibble);
  RhhhSpaceSaving other_h(h1, LatticeMode::kRhhh, lp);
  EXPECT_THROW(base.merge(other_h), std::invalid_argument);

  // Differing seeds are explicitly allowed (that is how shards are built).
  LatticeParams lp_s = lp;
  lp_s.seed = 777;
  RhhhSpaceSaving other_s(h, LatticeMode::kRhhh, lp_s);
  EXPECT_TRUE(base.mergeable_with(other_s));
}

TEST(LatticeMerge, StreamLengthsAndUpdatesAdd) {
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  LatticeParams lp;
  RhhhSpaceSaving a(h, LatticeMode::kMst, lp);
  RhhhSpaceSaving b(h, LatticeMode::kMst, lp);
  for (int i = 0; i < 100; ++i) a.update(Key128::from_u32(ipv4(1, 2, 3, 4)));
  for (int i = 0; i < 250; ++i) b.update(Key128::from_u32(ipv4(1, 2, 3, 4)));
  a.merge(b);
  EXPECT_EQ(a.stream_length(), 350u);
  EXPECT_EQ(a.updates_performed(), 350u * h.size());
  EXPECT_EQ(a.instance(0).upper(Key128::from_u32(ipv4(1, 2, 3, 4))), 350u);
}

/// Merging k disjoint sub-streams (of very unequal lengths) must satisfy
/// the same accuracy and coverage bounds as one instance over the union:
/// every exact HHH of the union covered, and every point estimate within
/// eps_a * N + correction() of the truth, with N the merged stream length.
TEST(LatticeMerge, DisjointSubstreamsMatchUnionBounds) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.02;
  lp.delta = 0.05;

  // Unequal split of a 300k-packet stream: 60% / 30% / 10%.
  constexpr int kN = 300000;
  const char* presets[3] = {"chicago16", "chicago15", "sanjose13"};
  const int share[3] = {180000, 90000, 30000};

  ExactHhh truth(h);
  RhhhSpaceSaving union_alg(h, LatticeMode::kRhhh, lp);
  std::vector<std::unique_ptr<RhhhSpaceSaving>> parts;
  for (int s = 0; s < 3; ++s) {
    LatticeParams lps = lp;
    lps.seed = static_cast<std::uint64_t>(s + 10);
    parts.push_back(
        std::make_unique<RhhhSpaceSaving>(h, LatticeMode::kRhhh, lps));
    TraceGenerator gen(trace_preset(presets[s]));
    for (int i = 0; i < share[s]; ++i) {
      const Key128 k = h.key_of(gen.next());
      truth.add(k);
      union_alg.update(k);
      parts[static_cast<std::size_t>(s)]->update(k);
    }
  }

  RhhhSpaceSaving merged(h, LatticeMode::kRhhh, lp);
  for (const auto& part : parts) merged.merge(*part);
  ASSERT_EQ(merged.stream_length(), static_cast<std::uint64_t>(kN));
  ASSERT_EQ(merged.stream_length(), union_alg.stream_length());
  // Same configuration => identical additive slack.
  ASSERT_DOUBLE_EQ(merged.correction(), union_alg.correction());

  const double theta = 0.1;
  const HhhSet exact = truth.compute(theta);
  ASSERT_GT(exact.size(), 0u);
  const double bound = merged.eps_a() * kN + merged.correction();

  const HhhSet merged_out = merged.output(theta);
  const HhhSet union_out = union_alg.output(theta);
  for (const HhhCandidate& c : exact) {
    // Coverage: both the merged and the union instance report (or refine)
    // every exact HHH...
    for (const HhhSet* out : {&merged_out, &union_out}) {
      bool covered = out->contains(c.prefix);
      if (!covered) {
        for (const HhhCandidate& o : *out) {
          if (h.generalizes(c.prefix, o.prefix) ||
              h.generalizes(o.prefix, c.prefix)) {
            covered = true;
            break;
          }
        }
      }
      EXPECT_TRUE(covered) << (out == &merged_out ? "merged" : "union")
                           << " missing " << h.format(c.prefix);
    }
    // ... and the merged point estimates obey the union instance's
    // accuracy bound around the exact count.
    EXPECT_NEAR(merged.estimate(c.prefix), c.f_est, bound)
        << h.format(c.prefix);
  }
}

// --------------------------------------------------- spare capacity ----
// A Space-Saving node with more counters than the distinct keys it sees
// never evicts, so it counts exactly: upper == lower == f. An MST lattice
// built that way is the exact-counter configuration, which isolates
// sampling error from counter error.

TEST(SpareCapacity, EveryNodeCountsExactly) {
  for (const bool two_dim : {false, true}) {
    const Hierarchy h = two_dim ? Hierarchy::ipv4_2d(Granularity::kByte)
                                : Hierarchy::ipv4_1d(Granularity::kByte);
    Xoroshiro128 rng(two_dim ? 52 : 51);
    const ZipfDistribution src_rank(512, 1.1);
    const ZipfDistribution dst_rank(16, 1.2);
    ExactHhh truth(h);
    std::vector<Key128> keys;
    for (int i = 0; i < 20000; ++i) {
      // Hash each rank to an address so every byte level sees many prefixes.
      const auto src = static_cast<std::uint32_t>(mix64(src_rank(rng)));
      const Key128 k =
          two_dim ? Key128::from_pair(src, static_cast<std::uint32_t>(mix64(dst_rank(rng))))
                  : Key128::from_u32(src);
      keys.push_back(k);
      truth.add(k);
    }
    // No node sees more distinct prefixes than there are distinct keys.
    LatticeParams lp;
    lp.counters_override = truth.distinct_keys() + 1;
    RhhhSpaceSaving alg(h, LatticeMode::kMst, lp);
    for (const Key128& k : keys) alg.update(k);

    for (std::uint32_t d = 0; d < h.size(); ++d) {
      const SpaceSaving<Key128>& node = alg.instance(d);
      EXPECT_EQ(node.min_bound(), 0u) << "node " << d;
      std::vector<Prefix> tracked;
      std::vector<std::uint64_t> upper;
      std::vector<std::uint64_t> lower;
      node.for_each([&](const Key128& k, std::uint64_t up, std::uint64_t lo) {
        tracked.push_back(Prefix{d, k});
        upper.push_back(up);
        lower.push_back(lo);
      });
      const std::vector<std::uint64_t> exact = truth.frequencies(tracked);
      std::uint64_t mass = 0;
      for (std::size_t i = 0; i < tracked.size(); ++i) {
        ASSERT_EQ(upper[i], exact[i]) << h.format(tracked[i]);
        ASSERT_EQ(lower[i], exact[i]) << h.format(tracked[i]);
        mass += exact[i];
      }
      // Every prefix the stream holds is tracked: the exact counts add to N.
      EXPECT_EQ(mass, truth.stream_length()) << "node " << d;
    }
  }
}

TEST(SpareCapacity, LatticeMatchesGroundTruthShape) {
  // With exact per-node counters, MST-mode output == the conservative
  // Algorithm 1 on the true counts: a useful oracle configuration.
  const Hierarchy h = Hierarchy::ipv4_1d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.01;
  lp.counters_override = 109;  // more than the stream's 108 distinct keys
  RhhhSpaceSaving alg(h, LatticeMode::kMst, lp);
  for (int i = 0; i < 102; ++i) {
    alg.update(Key128::from_u32(ipv4(101, 102, static_cast<std::uint8_t>(i), 1)));
  }
  for (int i = 0; i < 6; ++i) {
    alg.update(Key128::from_u32(ipv4(101, 103, static_cast<std::uint8_t>(i), 1)));
  }
  const HhhSet out = alg.output(100.0 / 108.0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(h.format(out[0].prefix), "101.102.*.*");
}

// ------------------------------------------------- cross-algorithm ----

/// RHHH and MST on the same skewed stream: every exact HHH must be covered
/// (itself or refined) in each one's output at a threshold comfortably
/// above the noise floor. The tries' half of this check is
/// CrossAlgorithm.TriesCoverExactHhhs in test_baselines.cpp.
TEST(CrossAlgorithm, AllAlgorithmsCoverExactHhhs) {
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

  LatticeParams lp;
  lp.eps = 0.02;
  lp.delta = 0.05;
  std::vector<std::unique_ptr<LatticeHhh>> algs;
  algs.push_back(std::make_unique<LatticeHhh>(h, LatticeMode::kRhhh, lp));
  algs.push_back(std::make_unique<LatticeHhh>(h, LatticeMode::kMst, lp));

  for (auto& alg : algs) {
    for (const Key128& k : packets) alg->update(k);
    const HhhSet out = alg->output(theta);
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
      EXPECT_TRUE(covered) << alg->name() << " missing " << h.format(c.prefix);
    }
  }
}

}  // namespace
}  // namespace rhhh
