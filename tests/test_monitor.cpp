// Tests for the HhhMonitor facade: hierarchy/algorithm factories, the
// packet-level API, psi/convergence reporting, report formatting, and
// cross-config smoke tests over every (hierarchy, algorithm) combination
// (the ancestry tries' rows of that sweep live in test_baselines.cpp).
#include <gtest/gtest.h>

#include <memory>

#include "core/monitor.hpp"
#include "net/ipv4.hpp"
#include "trace/trace_gen.hpp"

namespace rhhh {
namespace {

TEST(MonitorFactories, HierarchySizes) {
  EXPECT_EQ(make_hierarchy(HierarchyKind::kIpv4OneDimBytes).size(), 5u);
  EXPECT_EQ(make_hierarchy(HierarchyKind::kIpv4OneDimBits).size(), 33u);
  EXPECT_EQ(make_hierarchy(HierarchyKind::kIpv4TwoDimBytes).size(), 25u);
  EXPECT_EQ(make_hierarchy(HierarchyKind::kIpv4TwoDimNibbles).size(), 81u);
  EXPECT_EQ(make_hierarchy(HierarchyKind::kIpv6Bytes).size(), 17u);
  EXPECT_EQ(make_hierarchy(HierarchyKind::kIpv6Nibbles).size(), 33u);
}

TEST(MonitorFactories, AlgorithmNames) {
  const Hierarchy h = make_hierarchy(HierarchyKind::kIpv4TwoDimBytes);
  MonitorConfig cfg;
  cfg.algorithm = AlgorithmKind::kRhhh;
  EXPECT_EQ(make_algorithm(h, cfg)->name(), "RHHH");
  cfg.algorithm = AlgorithmKind::kTenRhhh;
  EXPECT_EQ(make_algorithm(h, cfg)->name(), "10-RHHH");
  cfg.algorithm = AlgorithmKind::kMst;
  EXPECT_EQ(make_algorithm(h, cfg)->name(), "MST");
  cfg.algorithm = AlgorithmKind::kSampledMst;
  EXPECT_EQ(make_algorithm(h, cfg)->name(), "Sampled-MST");
}

TEST(MonitorBasics, UpdateAndQuery1D) {
  MonitorConfig cfg;
  cfg.hierarchy = HierarchyKind::kIpv4OneDimBytes;
  cfg.algorithm = AlgorithmKind::kMst;
  cfg.eps = 0.01;
  HhhMonitor mon(cfg);
  for (int i = 0; i < 1000; ++i) mon.update(ipv4(44, 44, 1, 1), ipv4(9, 9, 9, 9));
  EXPECT_EQ(mon.packets(), 1000u);
  const HhhSet out = mon.query(0.5);
  ASSERT_FALSE(out.empty());
  EXPECT_TRUE(out.contains(
      Prefix{0, Key128::from_u32(ipv4(44, 44, 1, 1))}));
}

TEST(MonitorBasics, PacketRecordUpdate) {
  MonitorConfig cfg;
  cfg.hierarchy = HierarchyKind::kIpv4TwoDimBytes;
  cfg.algorithm = AlgorithmKind::kMst;
  HhhMonitor mon(cfg);
  PacketRecord p;
  p.src_ip = ipv4(1, 2, 3, 4);
  p.dst_ip = ipv4(5, 6, 7, 8);
  for (int i = 0; i < 100; ++i) mon.update(p);
  const HhhSet out = mon.query(0.9);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(mon.hierarchy().format(out[0].prefix), "(1.2.3.4, 5.6.7.8)");
}

TEST(MonitorBasics, PsiAndConvergence) {
  MonitorConfig cfg;
  cfg.hierarchy = HierarchyKind::kIpv4OneDimBytes;
  cfg.algorithm = AlgorithmKind::kRhhh;
  cfg.eps = 0.1;
  cfg.delta = 0.1;
  HhhMonitor mon(cfg);
  EXPECT_GT(mon.psi(), 0.0);
  EXPECT_FALSE(mon.converged());
  const auto need = static_cast<int>(mon.psi()) + 1;
  ASSERT_LT(need, 50000);
  for (int i = 0; i < need; ++i) mon.update(ipv4(1, 1, 1, 1), 0);
  EXPECT_TRUE(mon.converged());
  // Deterministic algorithms are always converged.
  MonitorConfig mcfg = cfg;
  mcfg.algorithm = AlgorithmKind::kMst;
  EXPECT_TRUE(HhhMonitor(mcfg).converged());
}

TEST(MonitorBasics, ReportFormatsLines) {
  MonitorConfig cfg;
  cfg.hierarchy = HierarchyKind::kIpv4OneDimBytes;
  cfg.algorithm = AlgorithmKind::kMst;
  HhhMonitor mon(cfg);
  for (int i = 0; i < 900; ++i) mon.update(ipv4(8, 8, 8, 8), 0);
  for (int i = 0; i < 100; ++i) mon.update(ipv4(9, 9, 9, 9), 0);
  const auto lines = mon.report(0.05);
  ASSERT_GE(lines.size(), 2u);
  // Sorted by estimate: 8.8.8.8 first.
  EXPECT_NE(lines[0].find("8.8.8.8"), std::string::npos);
  EXPECT_NE(lines[0].find("90.00%"), std::string::npos);
}

TEST(MonitorBasics, ClearResets) {
  HhhMonitor mon;
  mon.update(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2));
  EXPECT_EQ(mon.packets(), 1u);
  mon.clear();
  EXPECT_EQ(mon.packets(), 0u);
}

TEST(MonitorConfigTest, VOverrideRespected) {
  MonitorConfig cfg;
  cfg.algorithm = AlgorithmKind::kRhhh;
  cfg.V = 100;
  HhhMonitor mon(cfg);
  EXPECT_EQ(mon.algorithm().V(), 100u);
}

TEST(MonitorConfigTest, InvalidConfigThrows) {
  MonitorConfig cfg;
  cfg.eps = -1.0;
  EXPECT_THROW(HhhMonitor{cfg}, std::invalid_argument);
  cfg = {};
  cfg.V = 2;  // < H
  EXPECT_THROW(HhhMonitor{cfg}, std::invalid_argument);
}

/// Smoke sweep: every (hierarchy, algorithm) pair ingests a skewed stream
/// and returns a plausible HHH set containing a planted heavy hitter.
class MonitorMatrix
    : public ::testing::TestWithParam<std::tuple<HierarchyKind, AlgorithmKind>> {};

TEST_P(MonitorMatrix, FindsPlantedHeavyHitter) {
  const auto [hk, ak] = GetParam();
  MonitorConfig cfg;
  cfg.hierarchy = hk;
  cfg.algorithm = ak;
  cfg.eps = 0.05;
  cfg.delta = 0.05;
  HhhMonitor mon(cfg);
  TraceGenerator gen(trace_preset("chicago16"));
  const Ipv4 hot_src = ipv4(123, 45, 67, 89);
  const Ipv4 hot_dst = ipv4(98, 76, 54, 32);
  Xoroshiro128 rng(11);
  const int kN = 60000;
  for (int i = 0; i < kN; ++i) {
    if (rng.bounded(2) == 0) {
      mon.update(hot_src, hot_dst);
    } else {
      const PacketRecord p = gen.next();
      mon.update(p.src_ip, p.dst_ip);
    }
  }
  const HhhSet out = mon.query(0.4);
  // The planted pair carries ~50%: some returned prefix must generalize it.
  const Key128 hot = mon.hierarchy().dims() == 2
                         ? Key128::from_pair(hot_src, hot_dst)
                         : Key128::from_u32(hot_src);
  bool covered = false;
  for (const HhhCandidate& c : out) {
    if (mon.hierarchy().generalizes(c.prefix,
                                    Prefix{mon.hierarchy().bottom(), hot})) {
      covered = true;
    }
  }
  EXPECT_TRUE(covered) << to_string(hk) << "/" << to_string(ak) << " size="
                       << out.size();
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, MonitorMatrix,
    ::testing::Combine(::testing::Values(HierarchyKind::kIpv4OneDimBytes,
                                         HierarchyKind::kIpv4OneDimBits,
                                         HierarchyKind::kIpv4TwoDimBytes),
                       ::testing::Values(AlgorithmKind::kRhhh, AlgorithmKind::kTenRhhh,
                                         AlgorithmKind::kMst,
                                         AlgorithmKind::kSampledMst)),
    [](const auto& info) {
      std::string n = std::string(to_string(std::get<0>(info.param))) + "_" +
                      std::string(to_string(std::get<1>(info.param)));
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

}  // namespace
}  // namespace rhhh
