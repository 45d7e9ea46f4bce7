// Tests for the trace substrate: Zipf sampler statistics, the hierarchical
// address model, trace generator determinism and presets, and binary trace
// file round-trips.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "trace/address_model.hpp"
#include "trace/trace_gen.hpp"
#include "trace/trace_io.hpp"
#include "trace/zipf.hpp"

namespace rhhh {
namespace {

// ----------------------------------------------------------------- zipf ----

TEST(Zipf, RejectsBadParams) {
  EXPECT_THROW(ZipfDistribution(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfDistribution(10, 0.0), std::invalid_argument);
}

TEST(Zipf, StaysInRange) {
  Xoroshiro128 rng(1);
  for (double s : {0.5, 1.0, 1.3, 2.5}) {
    ZipfDistribution z(100, s);
    for (int i = 0; i < 5000; ++i) {
      const auto k = z(rng);
      ASSERT_GE(k, 1u);
      ASSERT_LE(k, 100u);
    }
  }
}

TEST(Zipf, DegenerateSingleValue) {
  Xoroshiro128 rng(2);
  ZipfDistribution z(1, 1.2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z(rng), 1u);
}

/// Empirical frequencies must match the Zipf pmf (chi-square on the head).
class ZipfPmf : public ::testing::TestWithParam<double> {};

TEST_P(ZipfPmf, HeadFrequenciesMatchTheory) {
  const double s = GetParam();
  const std::uint64_t n = 1000;
  ZipfDistribution z(n, s);
  Xoroshiro128 rng(42);
  const int kDraws = 200000;
  std::vector<int> counts(11, 0);  // ranks 1..10 + tail bucket
  for (int i = 0; i < kDraws; ++i) {
    const auto k = z(rng);
    if (k <= 10) {
      ++counts[static_cast<std::size_t>(k)];
    } else {
      ++counts[0];
    }
  }
  double hn = 0;
  for (std::uint64_t r = 1; r <= n; ++r) hn += std::pow(double(r), -s);
  double chi2 = 0;
  double tail_expected = kDraws;
  for (int r = 1; r <= 10; ++r) {
    const double expected = kDraws * std::pow(double(r), -s) / hn;
    tail_expected -= expected;
    const double d = counts[static_cast<std::size_t>(r)] - expected;
    chi2 += d * d / expected;
  }
  const double dt = counts[0] - tail_expected;
  chi2 += dt * dt / tail_expected;
  // 10 dof, 99.9th percentile ~= 29.6.
  EXPECT_LT(chi2, 29.6) << "s = " << s;
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfPmf, ::testing::Values(0.7, 1.0, 1.2, 1.8));

TEST(Zipf, RankOneIsMostFrequent) {
  ZipfDistribution z(10000, 1.1);
  Xoroshiro128 rng(5);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) ++counts[z(rng)];
  int max_count = 0;
  std::uint64_t max_rank = 0;
  for (const auto& [r, c] : counts) {
    if (c > max_count) {
      max_count = c;
      max_rank = r;
    }
  }
  EXPECT_EQ(max_rank, 1u);
}

// -------------------------------------------------------- address model ----

TEST(AddressModel, Deterministic) {
  const std::array<double, 4> skews{1.2, 1.0, 0.8, 0.6};
  HierarchicalAddressModel m1(77, skews);
  HierarchicalAddressModel m2(77, skews);
  for (std::uint64_t f = 0; f < 1000; ++f) {
    EXPECT_EQ(m1.address(f), m2.address(f));
    EXPECT_EQ(m1.address6(f).hi, m2.address6(f).hi);
  }
}

TEST(AddressModel, SeedsProduceDifferentSpaces) {
  const std::array<double, 4> skews{1.2, 1.0, 0.8, 0.6};
  HierarchicalAddressModel a(1, skews);
  HierarchicalAddressModel b(2, skews);
  int same = 0;
  for (std::uint64_t f = 0; f < 1000; ++f) same += (a.address(f) == b.address(f));
  EXPECT_LT(same, 50);
}

TEST(AddressModel, FirstByteSkewConcentrates) {
  // With strong skew on byte 0, a handful of /8s must carry most flows.
  HierarchicalAddressModel m(9, {1.3, 1.0, 0.8, 0.6});
  std::map<std::uint8_t, int> first_byte;
  const int kFlows = 20000;
  for (std::uint64_t f = 0; f < kFlows; ++f) {
    ++first_byte[static_cast<std::uint8_t>(m.address(f) >> 24)];
  }
  std::vector<int> counts;
  for (const auto& [b, c] : first_byte) counts.push_back(c);
  std::sort(counts.rbegin(), counts.rend());
  int top8 = 0;
  for (std::size_t i = 0; i < 8 && i < counts.size(); ++i) top8 += counts[i];
  EXPECT_GT(static_cast<double>(top8) / kFlows, 0.35)
      << "top 8 /8s should dominate under byte-0 skew 1.3";
}

TEST(AddressModel, Ipv6GroupsHaveStructure) {
  HierarchicalAddressModel m(10, {1.3, 1.0, 0.8, 0.6});
  std::set<std::uint16_t> top_groups;
  for (std::uint64_t f = 0; f < 5000; ++f) {
    top_groups.insert(m.address6(f).group(0));
  }
  // The leading 16 bits follow the strongest skews: far fewer distinct
  // values than flows, but not a constant either.
  EXPECT_LT(top_groups.size(), 2500u);
  EXPECT_GT(top_groups.size(), 10u);
}

// ------------------------------------------------------------ generator ----

TEST(TraceGen, PresetsExistAndDiffer) {
  const auto& names = trace_preset_names();
  ASSERT_EQ(names.size(), 4u);
  std::set<std::uint64_t> seeds;
  for (const auto& n : names) seeds.insert(trace_preset(n).seed);
  EXPECT_EQ(seeds.size(), 4u);
  EXPECT_THROW(trace_preset("nonexistent"), std::invalid_argument);
}

TEST(TraceGen, DeterministicPerConfig) {
  TraceGenerator a(trace_preset("chicago16"));
  TraceGenerator b(trace_preset("chicago16"));
  for (int i = 0; i < 2000; ++i) {
    const PacketRecord pa = a.next();
    const PacketRecord pb = b.next();
    EXPECT_EQ(pa, pb);
  }
}

TEST(TraceGen, PresetsProduceDistinctStreams) {
  TraceGenerator a(trace_preset("chicago16"));
  TraceGenerator b(trace_preset("sanjose14"));
  int same = 0;
  for (int i = 0; i < 1000; ++i) same += (a.next().src_ip == b.next().src_ip);
  EXPECT_LT(same, 100);
}

TEST(TraceGen, HeavyTailAndStructure) {
  TraceGenerator gen(trace_preset("sanjose14"));
  std::map<std::uint64_t, int> pair_counts;
  std::map<std::uint32_t, int> src16_counts;
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const PacketRecord p = gen.next();
    ++pair_counts[(std::uint64_t(p.src_ip) << 32) | p.dst_ip];
    ++src16_counts[p.src_ip >> 16];
  }
  // Heavy tail over flows: the most frequent pair well above uniform share.
  int max_pair = 0;
  for (const auto& [k, c] : pair_counts) max_pair = std::max(max_pair, c);
  EXPECT_GT(max_pair, kN / 1000);
  // Prefix concentration: some /16 aggregate holds >= 2% of traffic.
  int max16 = 0;
  for (const auto& [k, c] : src16_counts) max16 = std::max(max16, c);
  EXPECT_GT(max16, kN / 50);
}

TEST(TraceGen, TimestampsMonotone) {
  TraceGenerator gen(trace_preset("chicago15"));
  std::uint32_t last = 0;
  for (int i = 0; i < 5000; ++i) {
    const PacketRecord p = gen.next();
    EXPECT_GT(p.ts_us, last);
    last = p.ts_us;
  }
}

TEST(TraceGen, ProtocolMixRoughlyConfigured) {
  const TraceConfig cfg = trace_preset("chicago16");
  TraceGenerator gen(cfg);
  int tcp = 0;
  int udp = 0;
  int icmp = 0;
  const int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const PacketRecord p = gen.next();
    if (p.proto == static_cast<std::uint8_t>(IpProto::kTcp)) ++tcp;
    if (p.proto == static_cast<std::uint8_t>(IpProto::kUdp)) ++udp;
    if (p.proto == static_cast<std::uint8_t>(IpProto::kIcmp)) ++icmp;
  }
  EXPECT_EQ(tcp + udp + icmp, kN);
  // Flow-weighted shares drift from per-flow shares under skew; just check
  // all three protocols show up and TCP is a large share.
  EXPECT_GT(tcp, kN / 4);
  EXPECT_GT(udp, 0);
  EXPECT_GT(icmp, 0);
}

TEST(TraceGen, GenerateBatch) {
  TraceGenerator gen(trace_preset("sanjose13"));
  const auto batch = gen.generate(1234);
  EXPECT_EQ(batch.size(), 1234u);
  EXPECT_EQ(gen.packets_emitted(), 1234u);
}

// ---------------------------------------------------------------- trace io ----

class TraceIoTest : public ::testing::Test {
 protected:
  // One file per test and process: ctest runs every case as its own
  // process, so cases run in parallel under -j and must not share it.
  std::string path_ = ::testing::TempDir() + "/rhhh_trace_" +
                      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                      "_" + std::to_string(::getpid()) + ".rhht";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(TraceIoTest, RoundTrip) {
  TraceGenerator gen(trace_preset("chicago15"));
  const auto packets = gen.generate(5000);
  {
    TraceWriter w(path_);
    for (const auto& p : packets) w.write(p);
    w.close();
    EXPECT_EQ(w.written(), 5000u);
  }
  TraceReader r(path_);
  EXPECT_EQ(r.count(), 5000u);
  for (const auto& expected : packets) {
    const auto got = r.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, expected);
  }
  EXPECT_FALSE(r.next().has_value());
}

TEST_F(TraceIoTest, ReadAll) {
  {
    TraceWriter w(path_);
    TraceGenerator gen(trace_preset("sanjose14"));
    for (int i = 0; i < 100; ++i) w.write(gen.next());
  }  // destructor closes
  const auto all = TraceReader::read_all(path_);
  EXPECT_EQ(all.size(), 100u);
}

TEST_F(TraceIoTest, RejectsMissingFile) {
  EXPECT_THROW(TraceReader("/nonexistent/path.rhht"), std::runtime_error);
}

TEST_F(TraceIoTest, RejectsBadMagic) {
  {
    std::ofstream f(path_, std::ios::binary);
    f << "NOT A TRACE FILE AT ALL.....";
  }
  EXPECT_THROW(TraceReader r(path_), std::runtime_error);
}

TEST_F(TraceIoTest, DetectsTruncation) {
  {
    TraceWriter w(path_);
    TraceGenerator gen(trace_preset("chicago16"));
    for (int i = 0; i < 10; ++i) w.write(gen.next());
    w.close();
  }
  // Chop the last record in half.
  {
    std::ifstream in(path_, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    bytes.resize(bytes.size() - 10);
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  TraceReader r(path_);
  for (int i = 0; i < 9; ++i) ASSERT_TRUE(r.next().has_value());
  EXPECT_THROW((void)r.next(), std::runtime_error);
}

}  // namespace
}  // namespace rhhh
