// Tests for libpcap file interop: golden global-header bytes, round trips
// through build_frame/parse_frame, endianness handling, malformed files and
// non-IPv4 frame skipping.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/ipv4.hpp"
#include "net/pcap.hpp"
#include "trace/trace_gen.hpp"

namespace rhhh {
namespace {

class PcapTest : public ::testing::Test {
 protected:
  // One file per test and process: ctest runs every case as its own
  // process, so cases run in parallel under -j and must not share it.
  std::string path_ = ::testing::TempDir() + "/rhhh_pcap_" +
                      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                      "_" + std::to_string(::getpid()) + ".pcap";
  void TearDown() override { std::remove(path_.c_str()); }

  [[nodiscard]] std::vector<std::uint8_t> file_bytes() const {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }
  void write_bytes(const std::vector<std::uint8_t>& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
};

TEST_F(PcapTest, GoldenGlobalHeader) {
  { PcapWriter w(path_); }
  const auto bytes = file_bytes();
  ASSERT_EQ(bytes.size(), 24u);
  // Little-endian magic 0xa1b2c3d4, version 2.4, DLT_EN10MB = 1.
  EXPECT_EQ(bytes[0], 0xd4);
  EXPECT_EQ(bytes[1], 0xc3);
  EXPECT_EQ(bytes[2], 0xb2);
  EXPECT_EQ(bytes[3], 0xa1);
  EXPECT_EQ(bytes[4], 2);   // major
  EXPECT_EQ(bytes[6], 4);   // minor
  EXPECT_EQ(bytes[20], 1);  // link type
}

TEST_F(PcapTest, RoundTripPackets) {
  TraceGenerator gen(trace_preset("sanjose13"));
  const auto packets = gen.generate(500);
  {
    PcapWriter w(path_);
    for (const auto& p : packets) w.write(p);
    EXPECT_EQ(w.written(), 500u);
  }
  const auto back = PcapReader::read_all(path_);
  ASSERT_EQ(back.size(), 500u);
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].src_ip, packets[i].src_ip);
    EXPECT_EQ(back[i].dst_ip, packets[i].dst_ip);
    EXPECT_EQ(back[i].proto, packets[i].proto);
    if (packets[i].proto != static_cast<std::uint8_t>(IpProto::kIcmp)) {
      EXPECT_EQ(back[i].src_port, packets[i].src_port);
      EXPECT_EQ(back[i].dst_port, packets[i].dst_port);
    }
  }
}

TEST_F(PcapTest, ReaderReportsFlags) {
  {
    PcapWriter w(path_);
    PacketRecord p;
    p.src_ip = ipv4(1, 2, 3, 4);
    w.write(p);
  }
  PcapReader r(path_);
  EXPECT_FALSE(r.swapped());
  EXPECT_FALSE(r.nanosecond());
  EXPECT_TRUE(r.next().has_value());
  EXPECT_FALSE(r.next().has_value());
  EXPECT_EQ(r.frames_read(), 1u);
}

TEST_F(PcapTest, ReadsSwappedEndianHeaders) {
  // Hand-build a big-endian header + one record.
  PacketRecord p;
  p.src_ip = ipv4(9, 8, 7, 6);
  p.dst_ip = ipv4(1, 1, 1, 1);
  p.proto = static_cast<std::uint8_t>(IpProto::kUdp);
  const auto frame = build_frame(p);
  std::vector<std::uint8_t> bytes;
  auto be32 = [&](std::uint32_t v) {
    bytes.push_back(static_cast<std::uint8_t>(v >> 24));
    bytes.push_back(static_cast<std::uint8_t>(v >> 16));
    bytes.push_back(static_cast<std::uint8_t>(v >> 8));
    bytes.push_back(static_cast<std::uint8_t>(v));
  };
  be32(kPcapMagicUsec);
  bytes.push_back(0);
  bytes.push_back(2);  // version 2.4 big-endian
  bytes.push_back(0);
  bytes.push_back(4);
  be32(0);
  be32(0);
  be32(65535);
  be32(kPcapDltEthernet);
  be32(0);  // ts_sec
  be32(0);  // ts_usec
  be32(static_cast<std::uint32_t>(frame.size()));
  be32(static_cast<std::uint32_t>(frame.size()));
  bytes.insert(bytes.end(), frame.begin(), frame.end());
  write_bytes(bytes);

  PcapReader r(path_);
  EXPECT_TRUE(r.swapped());
  const auto rec = r.next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->src_ip, p.src_ip);
}

TEST_F(PcapTest, SkipsNonIpv4Frames) {
  {
    PcapWriter w(path_);
    // An ARP-ish frame (ethertype 0x0806): must be skipped by next().
    std::vector<std::uint8_t> arp(60, 0);
    arp[12] = 0x08;
    arp[13] = 0x06;
    w.write_frame(arp, 0, 0);
    PacketRecord p;
    p.src_ip = ipv4(4, 4, 4, 4);
    w.write(p);
  }
  PcapReader r(path_);
  const auto rec = r.next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->src_ip, ipv4(4, 4, 4, 4));
  EXPECT_EQ(r.frames_read(), 2u);
}

TEST_F(PcapTest, RejectsBadMagic) {
  write_bytes(std::vector<std::uint8_t>(24, 0x42));
  EXPECT_THROW(PcapReader r(path_), std::runtime_error);
}

TEST_F(PcapTest, RejectsTruncatedHeader) {
  write_bytes(std::vector<std::uint8_t>(10, 0));
  EXPECT_THROW(PcapReader r(path_), std::runtime_error);
}

TEST_F(PcapTest, RejectsNonEthernetLinkType) {
  std::vector<std::uint8_t> bytes(24, 0);
  bytes[0] = 0xd4;
  bytes[1] = 0xc3;
  bytes[2] = 0xb2;
  bytes[3] = 0xa1;
  bytes[20] = 101;  // DLT_RAW
  write_bytes(bytes);
  EXPECT_THROW(PcapReader r(path_), std::runtime_error);
}

TEST_F(PcapTest, ThrowsOnTruncatedRecordBody) {
  {
    PcapWriter w(path_);
    PacketRecord p;
    p.src_ip = ipv4(1, 2, 3, 4);
    w.write(p);
  }
  auto bytes = file_bytes();
  bytes.resize(bytes.size() - 5);
  write_bytes(bytes);
  PcapReader r(path_);
  EXPECT_THROW((void)r.next(), std::runtime_error);
}

TEST_F(PcapTest, HhhPipelineFromPcap) {
  // End to end: trace -> pcap -> reader -> exact HHH, the real-capture
  // ingestion path.
  {
    PcapWriter w(path_);
    TraceGenerator gen(trace_preset("chicago15"));
    for (int i = 0; i < 2000; ++i) w.write(gen.next());
  }
  const auto packets = PcapReader::read_all(path_);
  EXPECT_EQ(packets.size(), 2000u);
}

}  // namespace
}  // namespace rhhh
