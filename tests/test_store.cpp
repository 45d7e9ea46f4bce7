// Durable window store tests (src/store/).
//
// Three layers of coverage:
//   * serde round-trip fidelity: encode -> decode reproduces stream
//     counters, per-node rosters, estimates and whole HHH sets byte for
//     byte, across the hierarchy roster and every lattice mode, for both
//     directly-updated and merge()-built instances.
//   * corruption is LOUD: truncated records, flipped payload bytes (CRC),
//     version skew, impossible rosters and torn segment tails all throw or
//     degrade to the valid prefix -- never UB (this suite runs under the
//     ASan/UBSan CI job).
//   * the acceptance criterion: an archiver-enabled engine's store,
//     reopened cold, answers a last-K-windows query byte-identical to the
//     trend_snapshot() taken before shutdown (same HHH sets, same stream
//     lengths, same folded drops).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "store/archive.hpp"
#include "store/segment.hpp"
#include "store/serde.hpp"
#include "util/random.hpp"

namespace rhhh {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------- helpers ----

/// Fresh per-test scratch directory, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::path(::testing::TempDir()) /
           ("rhhh_store_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  [[nodiscard]] std::string str() const { return path.string(); }
};

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Order-independent-but-content-exact digest of an HHH set: one line per
/// candidate (formatted prefix + full-precision numbers), sorted.
std::uint64_t digest_set(const Hierarchy& h, const HhhSet& s) {
  std::vector<std::string> lines;
  lines.reserve(s.size());
  for (const HhhCandidate& c : s) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s|%.17g|%.17g|%.17g|%.17g",
                  h.format(c.prefix).c_str(), c.f_est, c.f_lo, c.f_hi, c.c_hat);
    lines.emplace_back(buf);
  }
  std::sort(lines.begin(), lines.end());
  std::uint64_t d = 0xcbf29ce484222325ULL;
  for (const std::string& l : lines) d = fnv1a(d, l);
  return d;
}

/// In-order digest: also pins the candidate iteration order ("byte
/// identical", not merely set-equal).
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

Key128 random_key(const Hierarchy& h, Xoroshiro128& rng) {
  if (h.dim(0).width_bits == 128) return Key128{rng(), rng()};
  if (h.dims() == 2) {
    return Key128::from_pair(static_cast<std::uint32_t>(rng()),
                             static_cast<std::uint32_t>(rng()));
  }
  return Key128::from_u32(static_cast<std::uint32_t>(rng()));
}

/// A skewed deterministic stream: a few hot keys over random background.
void feed(RhhhSpaceSaving& lat, const Hierarchy& h, std::uint64_t seed,
          std::size_t n) {
  Xoroshiro128 rng(seed);
  std::vector<Key128> hot;
  hot.reserve(8);
  for (int i = 0; i < 8; ++i) hot.push_back(random_key(h, rng));
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bounded(100) < 60) {
      lat.update(hot[rng.bounded(8)]);
    } else {
      lat.update(random_key(h, rng));
    }
  }
}

void expect_identical(const RhhhSpaceSaving& a, const RhhhSpaceSaving& b,
                      const Hierarchy& h, std::uint64_t probe_seed) {
  ASSERT_EQ(a.stream_length(), b.stream_length());
  ASSERT_EQ(a.updates_performed(), b.updates_performed());
  ASSERT_DOUBLE_EQ(a.psi(), b.psi());
  // Per-node rosters: identical sequences (keys, bounds, order, totals).
  for (std::uint32_t d = 0; d < a.H(); ++d) {
    const auto ea = a.instance(d).entries();
    const auto eb = b.instance(d).entries();
    ASSERT_EQ(ea.size(), eb.size()) << "node " << d;
    ASSERT_EQ(a.instance(d).total(), b.instance(d).total()) << "node " << d;
    for (std::size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].key, eb[i].key) << "node " << d << " entry " << i;
      EXPECT_EQ(ea[i].upper, eb[i].upper) << "node " << d << " entry " << i;
      EXPECT_EQ(ea[i].lower, eb[i].lower) << "node " << d << " entry " << i;
    }
  }
  // Whole HHH sets, order included, at several thresholds.
  for (const double theta : {0.02, 0.1, 0.3}) {
    EXPECT_EQ(digest_set_ordered(h, a.output(theta)),
              digest_set_ordered(h, b.output(theta)))
        << "theta " << theta;
  }
  // Point estimates on random prefixes (tracked or not).
  Xoroshiro128 rng(probe_seed);
  for (int i = 0; i < 64; ++i) {
    const auto node = static_cast<std::uint32_t>(rng.bounded(
        static_cast<std::uint64_t>(h.size())));
    const Prefix p{node, h.mask_key(node, random_key(h, rng))};
    EXPECT_DOUBLE_EQ(a.estimate(p), b.estimate(p));
  }
}

store::WindowMeta meta_of(const RhhhSpaceSaving& lat, std::uint64_t epoch) {
  store::WindowMeta m;
  m.epoch = epoch;
  m.wall_start_ns = static_cast<std::int64_t>(epoch) * 1'000'000'000;
  m.wall_end_ns = m.wall_start_ns + 999'999'999;  // [e, e+1) seconds
  m.duration_ns = 900'000'000;
  m.drops = 0;
  m.stream_length = lat.stream_length();
  m.updates = lat.updates_performed();
  return m;
}

// -------------------------------------------------- serde round trips ----

struct RosterCase {
  HierarchyKind kind;
  LatticeMode mode;
};

class SerdeRoundTrip : public ::testing::TestWithParam<RosterCase> {};

TEST_P(SerdeRoundTrip, ReproducesWindowExactly) {
  const auto [kind, mode] = GetParam();
  const Hierarchy h = make_hierarchy(kind);
  LatticeParams lp;
  lp.eps = 0.05;
  lp.delta = 0.05;
  lp.seed = 17;
  RhhhSpaceSaving lat(h, mode, lp);
  feed(lat, h, 99, 60000);

  const store::WindowMeta meta = meta_of(lat, 7);
  const store::Bytes bytes = store::encode_window(meta, kind, lat);

  // Cheap header peek agrees with what was written.
  const store::WindowHeader hdr =
      store::decode_window_header(bytes.data(), bytes.size());
  EXPECT_EQ(hdr.version, store::kWindowFormatVersion);
  EXPECT_EQ(hdr.config.hierarchy, kind);
  EXPECT_EQ(hdr.config.mode, mode);
  EXPECT_EQ(hdr.config.H, h.size());
  EXPECT_EQ(hdr.meta.epoch, 7u);
  EXPECT_EQ(hdr.meta.stream_length, lat.stream_length());

  store::WindowMeta meta2;
  const auto back =
      store::decode_window(bytes.data(), bytes.size(), h, &meta2);
  EXPECT_EQ(meta2.wall_start_ns, meta.wall_start_ns);
  EXPECT_EQ(meta2.duration_ns, meta.duration_ns);
  expect_identical(lat, *back, h, 1234);

  // Determinism: re-encoding the decoded instance is byte-identical.
  EXPECT_EQ(store::encode_window(meta, kind, *back), bytes);

  // The u64 after `seed` (byte 52: version, header size, kind, mode,
  // reserved u16, H, V, r, reserved u32, eps, delta, seed) is reserved; an
  // older build wrote a per-node backend seed there. Such a record, framed
  // and CRC'd by the segment log like any other, decodes to the same
  // lattice and re-encodes with the slot back at 0.
  constexpr std::size_t kReservedSeedSlot = 52;
  store::Bytes legacy = bytes;
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_EQ(legacy[kReservedSeedSlot + i], 0u);
    legacy[kReservedSeedSlot + i] = static_cast<std::uint8_t>(0xA5 ^ i);
  }
  TempDir tmp("legacy_seed_slot");
  const std::string path = (tmp.path / "00000001.seg").string();
  {
    store::SegmentWriter w(path);
    w.append(legacy, meta.epoch, meta.wall_start_ns, meta.wall_end_ns);
    w.seal();
  }
  const store::SegmentReader r(path);
  ASSERT_EQ(r.records(), 1u);
  const store::Bytes framed = r.read(0);
  ASSERT_EQ(framed, legacy);
  const auto old = store::decode_window(framed.data(), framed.size(), h);
  expect_identical(lat, *old, h, 1234);
  EXPECT_EQ(store::encode_window(meta, kind, *old), bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Roster, SerdeRoundTrip,
    ::testing::Values(
        RosterCase{HierarchyKind::kIpv4OneDimBytes, LatticeMode::kRhhh},
        RosterCase{HierarchyKind::kIpv4OneDimBytes, LatticeMode::kMst},
        RosterCase{HierarchyKind::kIpv4TwoDimBytes, LatticeMode::kRhhh},
        RosterCase{HierarchyKind::kIpv4TwoDimBytes, LatticeMode::kSampledMst},
        RosterCase{HierarchyKind::kIpv6Bytes, LatticeMode::kRhhh},
        RosterCase{HierarchyKind::kIpv4TwoDimNibbles, LatticeMode::kRhhh}));

TEST(SerdeRoundTripExtra, MergedInstanceSurvives) {
  // The archiver serializes *merged* lattices (merge() leaves total() above
  // the roster sum and rebuilds smallest-first); the round trip must keep
  // all of that.
  const Hierarchy h = make_hierarchy(HierarchyKind::kIpv4TwoDimBytes);
  LatticeParams lp;
  lp.eps = 0.05;
  lp.delta = 0.05;
  lp.seed = 5;
  RhhhSpaceSaving a(h, LatticeMode::kRhhh, lp);
  lp.seed = 6;
  RhhhSpaceSaving b(h, LatticeMode::kRhhh, lp);
  feed(a, h, 41, 40000);
  feed(b, h, 42, 40000);
  lp.seed = 7;
  RhhhSpaceSaving merged(h, LatticeMode::kRhhh, lp);
  merged.merge(a);
  merged.merge(b);
  merged.advance_stream(123);  // folded drops

  const store::Bytes bytes = store::encode_window(
      meta_of(merged, 1), HierarchyKind::kIpv4TwoDimBytes, merged);
  const auto back = store::decode_window(bytes.data(), bytes.size(), h);
  expect_identical(merged, *back, h, 777);
}

TEST(SerdeRoundTripExtra, EmptyWindow) {
  const Hierarchy h = make_hierarchy(HierarchyKind::kIpv4OneDimBytes);
  LatticeParams lp;
  lp.eps = 0.1;
  lp.delta = 0.1;
  RhhhSpaceSaving lat(h, LatticeMode::kRhhh, lp);
  const store::Bytes bytes =
      store::encode_window(meta_of(lat, 1), HierarchyKind::kIpv4OneDimBytes, lat);
  const auto back = store::decode_window(bytes.data(), bytes.size(), h);
  EXPECT_EQ(back->stream_length(), 0u);
  EXPECT_TRUE(back->output(0.1).empty());
}

// ------------------------------------------------------ loud corruption ----

store::Bytes sample_record(const Hierarchy& h, std::uint64_t seed = 3) {
  LatticeParams lp;
  lp.eps = 0.1;
  lp.delta = 0.1;
  lp.seed = seed;
  RhhhSpaceSaving lat(h, LatticeMode::kRhhh, lp);
  feed(lat, h, seed, 20000);
  return store::encode_window(meta_of(lat, seed),
                              HierarchyKind::kIpv4TwoDimBytes, lat);
}

TEST(SerdeCorruption, VersionSkewThrows) {
  const Hierarchy h = make_hierarchy(HierarchyKind::kIpv4TwoDimBytes);
  store::Bytes bytes = sample_record(h);
  bytes[0] = 99;  // format version word
  EXPECT_THROW((void)store::decode_window(bytes.data(), bytes.size(), h),
               std::runtime_error);
  EXPECT_THROW((void)store::decode_window_header(bytes.data(), bytes.size()),
               std::runtime_error);
}

TEST(SerdeCorruption, TruncationThrowsAtAnyCut) {
  const Hierarchy h = make_hierarchy(HierarchyKind::kIpv4TwoDimBytes);
  const store::Bytes bytes = sample_record(h);
  // Every prefix of the record must decode loudly, never out of bounds
  // (ASan watches this suite).
  for (const double f : {0.0, 0.1, 0.5, 0.9, 0.999}) {
    const auto cut = static_cast<std::size_t>(static_cast<double>(bytes.size()) * f);
    EXPECT_THROW((void)store::decode_window(bytes.data(), cut, h),
                 std::runtime_error)
        << "cut " << cut << "/" << bytes.size();
  }
}

TEST(SerdeCorruption, TrailingGarbageThrows) {
  const Hierarchy h = make_hierarchy(HierarchyKind::kIpv4TwoDimBytes);
  store::Bytes bytes = sample_record(h);
  bytes.push_back(0xAB);
  EXPECT_THROW((void)store::decode_window(bytes.data(), bytes.size(), h),
               std::runtime_error);
}

TEST(SerdeCorruption, HierarchyMismatchThrows) {
  const Hierarchy h2 = make_hierarchy(HierarchyKind::kIpv4TwoDimBytes);
  const Hierarchy h1 = make_hierarchy(HierarchyKind::kIpv4OneDimBytes);
  const store::Bytes bytes = sample_record(h2);
  EXPECT_THROW((void)store::decode_window(bytes.data(), bytes.size(), h1),
               std::runtime_error);
}

TEST(SerdeCorruption, SameHDifferentKindRejectedWhenKindIsPinned) {
  // kIpv4OneDimBits and kIpv6Nibbles are both H=33: the size check alone
  // cannot tell them apart, so a pinned expected kind must.
  const Hierarchy h6 = make_hierarchy(HierarchyKind::kIpv6Nibbles);
  const Hierarchy h4 = make_hierarchy(HierarchyKind::kIpv4OneDimBits);
  ASSERT_EQ(h6.size(), h4.size());
  LatticeParams lp;
  lp.eps = 0.1;
  lp.delta = 0.1;
  RhhhSpaceSaving lat(h6, LatticeMode::kRhhh, lp);
  feed(lat, h6, 9, 5000);
  const store::Bytes bytes =
      store::encode_window(meta_of(lat, 1), HierarchyKind::kIpv6Nibbles, lat);
  // Unpinned decode over the same-H foreign hierarchy cannot be caught...
  EXPECT_NO_THROW((void)store::decode_window(bytes.data(), bytes.size(), h4));
  // ...but every store/archiver read pins the kind and fails loudly.
  const HierarchyKind expect = HierarchyKind::kIpv4OneDimBits;
  EXPECT_THROW((void)store::decode_window(bytes.data(), bytes.size(), h4,
                                          nullptr, &expect),
               std::runtime_error);
}

TEST(SerdeCorruption, DuplicateKeyInRosterThrows) {
  // A CRC-valid record whose roster repeats a key is corrupt: reloading it
  // must fail loudly, not fold the two counts into one counter.
  const Hierarchy h = make_hierarchy(HierarchyKind::kIpv4TwoDimBytes);
  store::Bytes bytes = sample_record(h);
  store::ByteReader r(bytes.data(), bytes.size());
  (void)r.u32();
  const std::uint32_t header_bytes = r.u32();
  r.skip(header_bytes - 8);
  // Find a node roster with two entries; copy entry 0's key over entry 1's.
  std::size_t at = 0;
  for (std::uint32_t d = 0; d < h.size() && at == 0; ++d) {
    const std::uint32_t n = r.u32();
    r.skip(12);
    if (n >= 2) at = r.pos();
    r.skip(32 * static_cast<std::size_t>(n));
  }
  ASSERT_NE(at, 0u);
  std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(at), 16,
              bytes.begin() + static_cast<std::ptrdiff_t>(at + 32));
  try {
    (void)store::decode_window(bytes.data(), bytes.size(), h);
    FAIL() << "duplicate key decoded";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("store: ", 0), 0u) << e.what();
    EXPECT_NE(std::string(e.what()).find("duplicate key"), std::string::npos)
        << e.what();
  }

  // The segment log re-CRCs the payload, so only the decode can catch it.
  TempDir tmp("dupkey");
  {
    store::SegmentWriter w((tmp.path / "00000001.seg").string());
    w.append(bytes, 1, 0, 0);
  }
  const auto ar = store::WindowArchive::open_read(tmp.str());
  ASSERT_EQ(ar.windows(), 1u);
  EXPECT_THROW((void)ar.read(0), std::runtime_error);
}

/// Byte offset of node d's first roster entry in a record, and its count.
std::vector<std::pair<std::size_t, std::uint32_t>> roster_spans(const store::Bytes& bytes,
                                                                std::uint32_t H) {
  store::ByteReader r(bytes.data(), bytes.size());
  (void)r.u32();
  const std::uint32_t header_bytes = r.u32();
  r.skip(header_bytes - 8);
  std::vector<std::pair<std::size_t, std::uint32_t>> out;
  for (std::uint32_t d = 0; d < H; ++d) {
    const std::uint32_t n = r.u32();
    r.skip(12);
    out.emplace_back(r.pos(), n);
    r.skip(32 * static_cast<std::size_t>(n));
  }
  return out;
}

void put_le(store::Bytes& b, std::size_t at, std::uint64_t v, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// What `f` throws, by kind: "none", "invalid_argument", "store error" (a
/// std::runtime_error whose message starts "store: "), "runtime_error" or
/// "other".
template <class F>
std::string thrown_by(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return "invalid_argument";
  } catch (const std::runtime_error& e) {
    return std::string(e.what()).rfind("store: ", 0) == 0 ? "store error" : "runtime_error";
  } catch (const std::exception&) {
    return "other";
  }
  return "none";
}

TEST(SerdeCorruption, MergedQueriesRejectWhatReadRejects) {
  // merged_last/merged_range merge every window but the oldest straight
  // from its record bytes. Each fault read() (or the pairwise merge()
  // chain) rejects must be rejected there too, with the same exception.
  const Hierarchy h = make_hierarchy(HierarchyKind::kIpv4TwoDimBytes);
  const store::Bytes good0 = sample_record(h, 3);
  const store::Bytes good1 = sample_record(h, 4);
  const store::Bytes base = sample_record(h, 5);
  const auto spans = roster_spans(base, h.size());
  const auto [node0, n0] = spans[0];
  ASSERT_GE(n0, 2u);
  const auto entry = [](std::size_t first, std::size_t i) { return first + 32 * i; };

  std::vector<std::pair<std::string, store::Bytes>> cases;
  const auto edit = [&](const std::string& name, const auto& fn) {
    store::Bytes b = base;
    fn(b);
    cases.emplace_back(name, std::move(b));
  };
  edit("version skew", [](store::Bytes& b) { b[0] = 99; });
  for (const double f : {0.0, 0.1, 0.5, 0.9, 0.999}) {
    edit("truncated at " + std::to_string(f), [f](store::Bytes& b) {
      b.resize(static_cast<std::size_t>(static_cast<double>(b.size()) * f));
    });
  }
  edit("trailing garbage", [](store::Bytes& b) { b.push_back(0xAB); });
  cases.emplace_back("other H", [] {
    const Hierarchy h1 = make_hierarchy(HierarchyKind::kIpv4OneDimBytes);
    LatticeParams lp;
    lp.eps = 0.1;
    lp.delta = 0.1;
    RhhhSpaceSaving lat(h1, LatticeMode::kRhhh, lp);
    feed(lat, h1, 5, 2000);
    return store::encode_window(meta_of(lat, 5), HierarchyKind::kIpv4OneDimBytes, lat);
  }());
  edit("same H, other kind", [](store::Bytes& b) {
    b[8] = static_cast<std::uint8_t>(HierarchyKind::kIpv4OneDimBits);
  });
  edit("roster over capacity", [&](store::Bytes& b) { put_le(b, node0 - 16, 1000, 4); });
  edit("zero count", [&](store::Bytes& b) { put_le(b, entry(node0, 1) + 16, 0, 8); });
  edit("error > count", [&](store::Bytes& b) {
    const std::uint64_t up = store::ByteReader(b.data() + entry(node0, 1) + 16, 8).u64();
    put_le(b, entry(node0, 1) + 24, up + 1, 8);
  });
  // A repeated key the accumulator (windows 3 and 4) also holds...
  {
    // Held by window 3 alone and by windows 3 and 4 merged: the record's
    // accumulator at either position below.
    const auto first_acc = store::decode_window(good0.data(), good0.size(), h);
    auto acc = store::decode_window(good0.data(), good0.size(), h);
    acc->merge(*store::decode_window(good1.data(), good1.size(), h));
    std::size_t from = 0;
    std::size_t to = 0;
    for (std::uint32_t d = 0; d < h.size() && to == 0; ++d) {
      const auto [first, n] = spans[d];
      for (std::uint32_t i = 0; i < n && n >= 2 && to == 0; ++i) {
        store::ByteReader r(base.data() + entry(first, i), 16);
        Key128 k;
        k.hi = r.u64();
        k.lo = r.u64();
        if (!first_acc->instance(d).tracked(k) || !acc->instance(d).tracked(k)) continue;
        from = entry(first, i);
        to = entry(first, i == 0 ? 1 : 0);
      }
    }
    ASSERT_NE(to, 0u);
    edit("repeated key the accumulator holds", [&](store::Bytes& b) {
      std::copy_n(b.begin() + static_cast<std::ptrdiff_t>(from), 16,
                  b.begin() + static_cast<std::ptrdiff_t>(to));
    });
  }
  // ...and one no one else holds, on node 0's two smallest counts: the
  // merge truncates, so the second copy would not survive it.
  edit("repeated key no one else holds", [&](store::Bytes& b) {
    std::vector<std::pair<std::uint64_t, std::size_t>> by_count;
    for (std::uint32_t i = 0; i < n0; ++i) {
      by_count.emplace_back(store::ByteReader(b.data() + entry(node0, i) + 16, 8).u64(),
                            entry(node0, i));
    }
    std::sort(by_count.begin(), by_count.end());
    for (int c = 0; c < 2; ++c) {
      put_le(b, by_count[static_cast<std::size_t>(c)].second, 0xD1D1D1D1ULL, 8);
      put_le(b, by_count[static_cast<std::size_t>(c)].second + 8, 0xE2E2E2E2ULL, 8);
    }
  });
  // Parameters: the constructor rejects eps = 0; merge() rejects another
  // mode or V.
  edit("eps out of range", [](store::Bytes& b) { put_le(b, 28, 0, 8); });
  edit("mode mismatch", [](store::Bytes& b) {
    b[9] = static_cast<std::uint8_t>(LatticeMode::kMst);
  });
  edit("V mismatch", [&](store::Bytes& b) { put_le(b, 16, 10 * h.size(), 4); });

  TempDir tmp("merge_reject");
  for (const auto& [name, bad] : cases) {
    // The faulty record as the middle and as the newest of three windows.
    for (const std::size_t at : {std::size_t{1}, std::size_t{2}}) {
      const std::string what = name + " at " + std::to_string(at);
      std::vector<const store::Bytes*> recs{&good0, &good1};
      recs.insert(recs.begin() + static_cast<std::ptrdiff_t>(at), &bad);
      fs::remove_all(tmp.path);
      fs::create_directories(tmp.path);
      {
        store::SegmentWriter w((tmp.path / "00000001.seg").string());
        for (std::size_t i = 0; i < recs.size(); ++i) {
          const auto e = static_cast<std::int64_t>(i + 1);
          w.append(*recs[i], i + 1, e * 1'000'000'000, e * 1'000'000'000 + 999'999'999);
        }
        w.seal();
      }
      const auto ar = store::WindowArchive::open_read(tmp.str());
      ASSERT_EQ(ar.windows(), 3u) << what;
      const std::string chain = thrown_by([&] {
        auto m = ar.read(0).window;
        m->merge(*ar.read(1).window);
        m->merge(*ar.read(2).window);
      });
      EXPECT_NE(chain, "none") << what;
      EXPECT_EQ(thrown_by([&] { (void)ar.merged_last(3); }), chain) << what;
      EXPECT_EQ(thrown_by([&] { (void)ar.merged_range(0, 10'000'000'000); }), chain)
          << what;
    }
  }
}

// --------------------------------------------------------------- crc32 ----

/// Bit-at-a-time CRC-32 (reflected 0xEDB88320): the reference the table
/// implementation must match.
std::uint32_t crc32_reference(const std::uint8_t* p, std::size_t n,
                              std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

TEST(Crc32, KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(store::crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                         check.size()),
            0xCBF43926u);
  EXPECT_EQ(store::crc32(store::Bytes{}), 0u);
  EXPECT_EQ(store::crc32(nullptr, 0, 0x12345678u), 0x12345678u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  Xoroshiro128 rng(0xC3C32);
  store::Bytes buf(16 + 96);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng());
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 96; ++len) {
      ASSERT_EQ(store::crc32(buf.data() + off, len),
                crc32_reference(buf.data() + off, len))
          << "offset " << off << " length " << len;
      ASSERT_EQ(store::crc32(buf.data() + off, len, 0xDEADBEEFu),
                crc32_reference(buf.data() + off, len, 0xDEADBEEFu))
          << "offset " << off << " length " << len;
    }
  }
}

TEST(Crc32, ChainsAcrossSplits) {
  Xoroshiro128 rng(0xC4A1);
  store::Bytes buf(200);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng());
  const std::uint32_t whole = store::crc32(buf);
  for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
    const std::uint32_t a = store::crc32(buf.data(), cut);
    EXPECT_EQ(store::crc32(buf.data() + cut, buf.size() - cut, a), whole)
        << "cut " << cut;
  }
}

// ---------------------------------------------------------- segment log ----

TEST(SegmentLog, SealedWriteReadBack) {
  const Hierarchy h = make_hierarchy(HierarchyKind::kIpv4TwoDimBytes);
  TempDir tmp("segment");
  const std::string path = (tmp.path / "00000001.seg").string();
  std::vector<store::Bytes> payloads;
  {
    store::SegmentWriter w(path);
    for (std::uint64_t e = 1; e <= 3; ++e) {
      payloads.push_back(sample_record(h, e));
      w.append(payloads.back(), e, static_cast<std::int64_t>(e) * 1000,
               static_cast<std::int64_t>(e) * 1000 + 999);
    }
    w.seal();
  }
  store::SegmentReader r(path);
  EXPECT_TRUE(r.sealed());
  EXPECT_FALSE(r.truncated_tail());
  ASSERT_EQ(r.records(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r.index()[i].epoch, i + 1);
    EXPECT_EQ(r.read(i), payloads[i]);
  }
}

TEST(SegmentLog, TornTailServesValidPrefix) {
  const Hierarchy h = make_hierarchy(HierarchyKind::kIpv4TwoDimBytes);
  TempDir tmp("torn");
  const std::string path = (tmp.path / "00000001.seg").string();
  const std::string crash = (tmp.path / "crash.seg").string();
  std::vector<store::Bytes> payloads;
  std::uint64_t rec3_offset = 0;
  {
    store::SegmentWriter w(path);
    for (std::uint64_t e = 1; e <= 3; ++e) {
      payloads.push_back(sample_record(h, e));
      const store::SegmentIndexEntry ie = w.append(payloads.back(), e, 0, 0);
      if (e == 3) rec3_offset = ie.offset;
    }
    // Simulate the crash: snapshot the file while the writer is still
    // open (no footer yet), before the destructor seals the original.
    fs::copy_file(path, crash);
    w.seal();
  }
  // Tear the copy mid-record-3.
  fs::resize_file(crash, rec3_offset + 20);
  store::SegmentReader r(crash);
  EXPECT_FALSE(r.sealed());
  EXPECT_TRUE(r.truncated_tail());
  ASSERT_EQ(r.records(), 2u);
  EXPECT_EQ(r.read(0), payloads[0]);
  EXPECT_EQ(r.read(1), payloads[1]);
}

TEST(SegmentLog, UnsealedCleanScanSeesEverything) {
  const Hierarchy h = make_hierarchy(HierarchyKind::kIpv4TwoDimBytes);
  TempDir tmp("unsealed");
  const std::string path = (tmp.path / "00000001.seg").string();
  const std::string crash = (tmp.path / "crash.seg").string();
  {
    store::SegmentWriter w(path);
    w.append(sample_record(h, 1), 1, 0, 0);
    w.append(sample_record(h, 2), 2, 0, 0);
    fs::copy_file(path, crash);  // crash right after a completed append
  }
  store::SegmentReader r(crash);
  EXPECT_FALSE(r.sealed());
  EXPECT_FALSE(r.truncated_tail());  // every byte accounted for
  EXPECT_EQ(r.records(), 2u);
}

TEST(SegmentLog, BitFlipFailsCrcLoudly) {
  const Hierarchy h = make_hierarchy(HierarchyKind::kIpv4TwoDimBytes);
  TempDir tmp("crc");
  const std::string path = (tmp.path / "00000001.seg").string();
  store::SegmentIndexEntry ie;
  {
    store::SegmentWriter w(path);
    ie = w.append(sample_record(h, 1), 1, 0, 0);
    w.seal();
  }
  // Flip one byte in the middle of the payload.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(ie.offset) + 12 + ie.length / 2);
    char c{};
    f.get(c);
    f.seekp(static_cast<std::streamoff>(ie.offset) + 12 + ie.length / 2);
    f.put(static_cast<char>(c ^ 0x40));
  }
  store::SegmentReader r(path);  // footer still valid
  EXPECT_TRUE(r.sealed());
  ASSERT_EQ(r.records(), 1u);
  EXPECT_THROW((void)r.read(0), std::runtime_error);
}

TEST(SegmentLog, NotASegmentThrows) {
  TempDir tmp("notseg");
  const std::string path = (tmp.path / "bogus.seg").string();
  std::ofstream(path, std::ios::binary) << "this is not a segment file";
  EXPECT_THROW(store::SegmentReader r(path), std::runtime_error);
}

// -------------------------------------------------------- window archive ----

/// Small lattices so many windows fit in tiny segments.
std::unique_ptr<RhhhSpaceSaving> small_window(const Hierarchy& h,
                                              std::uint64_t seed) {
  LatticeParams lp;
  lp.eps = 0.2;
  lp.delta = 0.1;
  lp.seed = seed;
  auto lat = std::make_unique<RhhhSpaceSaving>(h, LatticeMode::kRhhh, lp);
  feed(*lat, h, seed, 5000);
  return lat;
}

TEST(WindowArchive, AppendRollQueryRetention) {
  const Hierarchy h = make_hierarchy(HierarchyKind::kIpv4OneDimBytes);
  TempDir tmp("archive");
  ArchiveConfig cfg;
  cfg.dir = tmp.str();
  cfg.segment_bytes = 6 << 10;  // force several rolls
  {
    auto ar = store::WindowArchive::open_write(cfg);
    for (std::uint64_t e = 1; e <= 12; ++e) {
      const auto lat = small_window(h, e);
      ar.append(meta_of(*lat, e), HierarchyKind::kIpv4OneDimBytes, *lat);
    }
    ar.close();
    EXPECT_GT(ar.segments(), 2u);
    EXPECT_EQ(ar.windows(), 12u);
  }

  // Cold reopen: full catalog, ordered metadata, newest-first last().
  const auto ar = store::WindowArchive::open_read(tmp.str());
  EXPECT_FALSE(ar.truncated_tail());
  ASSERT_EQ(ar.windows(), 12u);
  const auto metas = ar.list();
  for (std::size_t i = 0; i < metas.size(); ++i) {
    EXPECT_EQ(metas[i].epoch, i + 1);
  }
  const auto newest = ar.last(3);
  ASSERT_EQ(newest.size(), 3u);
  EXPECT_EQ(newest[0].meta.epoch, 12u);
  EXPECT_EQ(newest[2].meta.epoch, 10u);

  // Time-range query: window e spans [e, e+1) seconds (see meta_of).
  const auto mid = ar.range(4'000'000'000, 6'500'000'000);
  ASSERT_EQ(mid.size(), 3u);  // epochs 4, 5, 6 overlap
  EXPECT_EQ(mid.front().meta.epoch, 4u);
  EXPECT_EQ(mid.back().meta.epoch, 6u);

  // merged_last == manual merge of the same windows (oldest first).
  std::uint64_t drops = 0;
  const auto merged = ar.merged_last(3, &drops);
  ASSERT_NE(merged, nullptr);
  auto manual = ar.read(9).window;
  manual->merge(*ar.read(10).window);
  manual->merge(*ar.read(11).window);
  EXPECT_EQ(merged->stream_length(), manual->stream_length());
  EXPECT_EQ(digest_set(h, merged->output(0.1)), digest_set(h, manual->output(0.1)));

  // Replay covers the whole history in order.
  auto it = ar.replay();
  store::ArchivedWindow w;
  std::uint64_t expect_epoch = 1;
  while (it.next(w)) EXPECT_EQ(w.meta.epoch, expect_epoch++);
  EXPECT_EQ(expect_epoch, 13u);

  // Retention compaction: trim to ~2 segments' worth of bytes; the newest
  // windows survive, the oldest segments are gone.
  ArchiveConfig wcfg = cfg;
  auto war = store::WindowArchive::open_write(wcfg);
  const std::size_t before = war.segments();
  const std::uint64_t budget = war.total_bytes() / 2;
  const std::size_t deleted = war.compact(budget);
  EXPECT_GT(deleted, 0u);
  EXPECT_EQ(war.segments(), before - deleted);
  EXPECT_LE(war.total_bytes(), budget);
  ASSERT_GT(war.windows(), 0u);
  EXPECT_EQ(war.list().back().epoch, 12u);  // newest retained
}

TEST(WindowArchive, MergedQueriesMatchPairwiseChainByteForByte) {
  // merged_last/merged_range decode only the oldest window and merge the
  // rest from their records' rosters; the image must equal merging read()
  // windows oldest first, byte for byte, with the same folded drops.
  struct Algo {
    LatticeMode mode;
    std::uint32_t v_factor;  ///< V = v_factor * H (RHHH only)
  };
  for (const HierarchyKind kind :
       {HierarchyKind::kIpv4TwoDimBytes, HierarchyKind::kIpv4OneDimBits}) {
    const Hierarchy h = make_hierarchy(kind);
    for (const Algo algo : {Algo{LatticeMode::kRhhh, 1}, Algo{LatticeMode::kRhhh, 10},
                            Algo{LatticeMode::kMst, 1}}) {
      const std::string what = std::string(to_string(kind)) + " " +
                               std::string(to_string(algo.mode)) + " V=" +
                               std::to_string(algo.v_factor) + "H";
      TempDir tmp("chain");
      ArchiveConfig cfg;
      cfg.dir = tmp.str();
      {
        auto ar = store::WindowArchive::open_write(cfg);
        for (std::uint64_t e = 1; e <= 9; ++e) {
          LatticeParams lp;
          lp.eps = 0.05;
          lp.delta = 0.1;
          lp.seed = e;
          if (algo.mode == LatticeMode::kRhhh) {
            lp.V = algo.v_factor * static_cast<std::uint32_t>(h.size());
          }
          RhhhSpaceSaving lat(h, algo.mode, lp);
          // Every third window is short enough to leave rosters below
          // capacity (min bound 0).
          feed(lat, h, e, e % 3 == 0 ? 150 : 6000);
          const std::uint64_t drops = 7 * e;
          lat.advance_stream(drops);
          store::WindowMeta m = meta_of(lat, e);
          m.drops = drops;
          ar.append(m, kind, lat);
        }
      }
      const auto ar = store::WindowArchive::open_read(tmp.str());
      ASSERT_EQ(ar.windows(), 9u) << what;
      // The record image of a merged lattice, its N and updates included.
      const auto image = [&](const RhhhSpaceSaving& l) {
        store::WindowMeta m;
        m.stream_length = l.stream_length();
        m.updates = l.updates_performed();
        return store::encode_window(m, kind, l);
      };
      // read() windows [first, first + count) merged oldest first.
      const auto chain = [&](std::size_t first, std::size_t count, std::uint64_t& drops) {
        store::ArchivedWindow acc = ar.read(first);
        drops = acc.meta.drops;
        for (std::size_t i = first + 1; i < first + count; ++i) {
          const store::ArchivedWindow w = ar.read(i);
          acc.window->merge(*w.window);
          drops += w.meta.drops;
        }
        return image(*acc.window);
      };
      for (std::size_t k = 1; k <= 8; ++k) {
        std::uint64_t got_drops = 0;
        std::uint64_t want_drops = 0;
        const auto got = ar.merged_last(k, &got_drops);
        ASSERT_NE(got, nullptr) << what;
        EXPECT_TRUE(image(*got) == chain(9 - k, k, want_drops)) << what << " last " << k;
        EXPECT_EQ(got_drops, want_drops) << what << " last " << k;
      }
      // Window e spans [e, e+1) seconds: ranges over epochs 2-4, 1-9 and 5.
      for (const auto& [lo, hi] : {std::pair{2, 4}, std::pair{1, 9}, std::pair{5, 5}}) {
        std::uint64_t got_drops = 0;
        std::uint64_t want_drops = 0;
        const auto got = ar.merged_range(std::int64_t{lo} * 1'000'000'000,
                                         std::int64_t{hi} * 1'000'000'000 + 500'000'000,
                                         &got_drops);
        ASSERT_NE(got, nullptr) << what;
        const auto first = static_cast<std::size_t>(lo - 1);
        const auto count = static_cast<std::size_t>(hi - lo + 1);
        EXPECT_TRUE(image(*got) == chain(first, count, want_drops))
            << what << " range " << lo << "-" << hi;
        EXPECT_EQ(got_drops, want_drops) << what << " range " << lo << "-" << hi;
      }
    }
  }
}

TEST(WindowArchive, CompactRepairsTornSegment) {
  const Hierarchy h = make_hierarchy(HierarchyKind::kIpv4OneDimBytes);
  TempDir tmp("repair");
  ArchiveConfig cfg;
  cfg.dir = tmp.str();
  std::uint64_t rec2_offset = 0;
  {
    store::SegmentWriter w((tmp.path / "00000001.seg").string());
    const auto l1 = small_window(h, 1);
    w.append(store::encode_window(meta_of(*l1, 1), HierarchyKind::kIpv4OneDimBytes, *l1),
             1, 0, 0);
    const auto l2 = small_window(h, 2);
    rec2_offset =
        w.append(store::encode_window(meta_of(*l2, 2), HierarchyKind::kIpv4OneDimBytes, *l2),
                 2, 1000, 1999)
            .offset;
    // No seal: emulate a crash, then tear record 2.
    fs::copy_file(tmp.path / "00000001.seg", tmp.path / "torn.seg");
  }
  fs::remove(tmp.path / "00000001.seg");
  fs::rename(tmp.path / "torn.seg", tmp.path / "00000001.seg");
  fs::resize_file(tmp.path / "00000001.seg", rec2_offset + 16);

  auto ar = store::WindowArchive::open_write(cfg);
  EXPECT_TRUE(ar.truncated_tail());
  EXPECT_EQ(ar.windows(), 1u);
  ar.compact(0);  // repair only
  EXPECT_FALSE(ar.truncated_tail());

  const auto cold = store::WindowArchive::open_read(tmp.str());
  EXPECT_FALSE(cold.truncated_tail());
  ASSERT_EQ(cold.windows(), 1u);
  EXPECT_EQ(cold.read(0).meta.epoch, 1u);
}

TEST(WindowArchive, MixedHierarchyRejected) {
  const Hierarchy h1 = make_hierarchy(HierarchyKind::kIpv4OneDimBytes);
  TempDir tmp("mixed");
  ArchiveConfig cfg;
  cfg.dir = tmp.str();
  auto ar = store::WindowArchive::open_write(cfg);
  const auto l1 = small_window(h1, 1);
  ar.append(meta_of(*l1, 1), HierarchyKind::kIpv4OneDimBytes, *l1);
  EXPECT_THROW(ar.append(meta_of(*l1, 2), HierarchyKind::kIpv4TwoDimBytes, *l1),
               std::invalid_argument);
}

// ------------------------------------------ durability & run identity ----

TEST(SegmentDurability, FsyncCadenceIsObservable) {
  // 3 appends + 1 seal: kNone never syncs, kPerRoll syncs the sealed
  // footer only, kPerRecord syncs every append and the footer.
  const Hierarchy h = make_hierarchy(HierarchyKind::kIpv4TwoDimBytes);
  TempDir tmp("fsync");
  const store::Bytes payload = sample_record(h);
  struct Case {
    FsyncMode mode;
    std::uint64_t want;
  };
  for (const Case c : {Case{FsyncMode::kNone, 0}, Case{FsyncMode::kPerRoll, 1},
                       Case{FsyncMode::kPerRecord, 4}}) {
    const std::string path =
        (tmp.path / (std::string(to_string(c.mode)) + ".seg")).string();
    store::SegmentWriter w(path, c.mode, 0x5EED);
    for (std::uint64_t e = 1; e <= 3; ++e) w.append(payload, e, 0, 0);
    w.seal();
    EXPECT_EQ(w.fsyncs(), c.want) << to_string(c.mode);
    // The cadence changes durability only, never the bytes' readability.
    store::SegmentReader r(path);
    EXPECT_TRUE(r.sealed());
    EXPECT_EQ(r.records(), 3u);
  }
}

TEST(WindowArchive, FsyncModeFlowsThroughTheArchive) {
  const Hierarchy h = make_hierarchy(HierarchyKind::kIpv4OneDimBytes);
  {  // kNone: zero syncs no matter how much is written.
    TempDir tmp("fsnone");
    ArchiveConfig cfg;
    cfg.dir = tmp.str();
    auto ar = store::WindowArchive::open_write(cfg);
    for (std::uint64_t e = 1; e <= 4; ++e) {
      const auto lat = small_window(h, e);
      ar.append(meta_of(*lat, e), HierarchyKind::kIpv4OneDimBytes, *lat);
    }
    ar.close();
    EXPECT_EQ(ar.fsyncs(), 0u);
  }
  {  // kPerRoll: exactly one sync per sealed segment.
    TempDir tmp("fsroll");
    ArchiveConfig cfg;
    cfg.dir = tmp.str();
    cfg.segment_bytes = 6 << 10;  // force several rolls
    cfg.fsync_mode = FsyncMode::kPerRoll;
    auto ar = store::WindowArchive::open_write(cfg);
    for (std::uint64_t e = 1; e <= 12; ++e) {
      const auto lat = small_window(h, e);
      ar.append(meta_of(*lat, e), HierarchyKind::kIpv4OneDimBytes, *lat);
    }
    ar.close();
    EXPECT_GT(ar.segments(), 2u);
    EXPECT_EQ(ar.fsyncs(), ar.segments());
  }
  {  // kPerRecord: every append syncs, plus the segment's footer.
    TempDir tmp("fsrec");
    ArchiveConfig cfg;
    cfg.dir = tmp.str();
    cfg.fsync_mode = FsyncMode::kPerRecord;
    auto ar = store::WindowArchive::open_write(cfg);
    for (std::uint64_t e = 1; e <= 4; ++e) {
      const auto lat = small_window(h, e);
      ar.append(meta_of(*lat, e), HierarchyKind::kIpv4OneDimBytes, *lat);
    }
    ar.close();
    ASSERT_EQ(ar.segments(), 1u);
    EXPECT_EQ(ar.fsyncs(), 5u);  // 4 records + 1 footer
  }
}

TEST(WindowArchive, RunIdStampedAndDistinctAcrossRuns) {
  const Hierarchy h = make_hierarchy(HierarchyKind::kIpv4OneDimBytes);
  TempDir tmp("runid");
  ArchiveConfig cfg;
  cfg.dir = tmp.str();
  std::uint64_t r1 = 0;
  std::uint64_t r2 = 0;
  {
    auto ar = store::WindowArchive::open_write(cfg);
    r1 = ar.run_id();
    EXPECT_NE(r1, 0u);  // 0 is reserved for "unknown" (v1 segments)
    const auto l = small_window(h, 1);
    ar.append(meta_of(*l, 1), HierarchyKind::kIpv4OneDimBytes, *l);
    ar.close();
    EXPECT_EQ(ar.segment_run_id(0), r1);
  }
  {
    // A second archiver run over the same store draws a fresh identity;
    // its segments are attributable to it, the first run's keep theirs.
    auto ar = store::WindowArchive::open_write(cfg);
    r2 = ar.run_id();
    EXPECT_NE(r2, 0u);
    EXPECT_NE(r2, r1);
    const auto l = small_window(h, 2);
    ar.append(meta_of(*l, 2), HierarchyKind::kIpv4OneDimBytes, *l);
    ar.close();
  }
  const auto cold = store::WindowArchive::open_read(tmp.str());
  EXPECT_EQ(cold.run_id(), 0u);  // read-only: no identity of its own
  ASSERT_EQ(cold.segments(), 2u);
  EXPECT_EQ(cold.segment_run_id(0), r1);
  EXPECT_EQ(cold.segment_run_id(1), r2);
  // The id really lives in the file header, not just the catalog.
  store::SegmentReader seg0((tmp.path / "00000001.seg").string());
  EXPECT_EQ(seg0.version(), 2u);
  EXPECT_EQ(seg0.run_id(), r1);
}

TEST(SegmentLog, ReadsV1SegmentsWithoutRunId) {
  // Hand-write the exact bytes a pre-run-id (format v1) writer produced: a
  // 16-byte header, two framed records and a sealed footer. Today's reader
  // must serve it unchanged, reporting run_id() == 0 ("unknown").
  const Hierarchy h = make_hierarchy(HierarchyKind::kIpv4TwoDimBytes);
  TempDir tmp("v1seg");
  const std::string path = (tmp.path / "00000001.seg").string();
  const store::Bytes p1 = sample_record(h, 1);
  const store::Bytes p2 = sample_record(h, 2);

  store::ByteWriter out;
  out.u32(0x53484852u);  // 'R','H','H','S'
  out.u32(1);            // format v1: no run-id field
  out.u32(16);           // self-declared header length
  out.u32(0);            // flags
  std::vector<store::SegmentIndexEntry> idx;
  for (const store::Bytes* p : {&p1, &p2}) {
    store::SegmentIndexEntry e;
    e.offset = out.size();
    e.length = static_cast<std::uint32_t>(p->size());
    e.epoch = idx.size() + 1;
    e.wall_start_ns = static_cast<std::int64_t>(e.epoch) * 1'000'000'000;
    e.wall_end_ns = e.wall_start_ns + 999'999'999;
    out.u32(0x43455257u);  // 'W','R','E','C'
    out.u32(e.length);
    out.u32(store::crc32(*p));
    for (const std::uint8_t b : *p) out.u8(b);
    idx.push_back(e);
  }
  const std::uint64_t idx_off = out.size();
  store::ByteWriter ix;
  ix.u32(static_cast<std::uint32_t>(idx.size()));
  for (const store::SegmentIndexEntry& e : idx) {
    ix.u64(e.offset);
    ix.u32(e.length);
    ix.u64(e.epoch);
    ix.i64(e.wall_start_ns);
    ix.i64(e.wall_end_ns);
  }
  for (const std::uint8_t b : ix.bytes()) out.u8(b);
  out.u64(idx_off);
  out.u32(static_cast<std::uint32_t>(ix.size()));
  out.u32(store::crc32(ix.bytes()));
  out.u32(0x46484852u);  // 'R','H','H','F'
  {
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(out.bytes().data()),
            static_cast<std::streamsize>(out.size()));
  }

  store::SegmentReader r(path);
  EXPECT_EQ(r.version(), 1u);
  EXPECT_EQ(r.run_id(), 0u);
  EXPECT_TRUE(r.sealed());
  EXPECT_FALSE(r.truncated_tail());
  ASSERT_EQ(r.records(), 2u);
  EXPECT_EQ(r.read(0), p1);
  EXPECT_EQ(r.read(1), p2);

  // The archive layers on top without noticing the age of the file.
  const auto ar = store::WindowArchive::open_read(tmp.str());
  ASSERT_EQ(ar.windows(), 2u);
  EXPECT_EQ(ar.segment_run_id(0), 0u);
  EXPECT_EQ(ar.read(1).meta.epoch, 2u);
}

TEST(WindowArchive, CompactPreservesSegmentRunId) {
  // Compaction repairs the file; it must not re-author the data -- the
  // rewritten segment keeps the run id of the process that produced it.
  const Hierarchy h = make_hierarchy(HierarchyKind::kIpv4OneDimBytes);
  TempDir tmp("repairid");
  ArchiveConfig cfg;
  cfg.dir = tmp.str();
  const std::uint64_t rid = 0x00C0FFEE12345678ULL;
  {
    store::SegmentWriter w((tmp.path / "00000001.seg").string(),
                           FsyncMode::kNone, rid);
    const auto l1 = small_window(h, 1);
    w.append(store::encode_window(meta_of(*l1, 1),
                                  HierarchyKind::kIpv4OneDimBytes, *l1),
             1, 0, 0);
    // Snapshot before the destructor seals: an unsealed (crashed) segment.
    fs::copy_file(tmp.path / "00000001.seg", tmp.path / "torn.seg");
  }
  fs::remove(tmp.path / "00000001.seg");
  fs::rename(tmp.path / "torn.seg", tmp.path / "00000001.seg");

  auto ar = store::WindowArchive::open_write(cfg);
  EXPECT_EQ(ar.segment_run_id(0), rid);
  ar.compact(0);  // repair only

  store::SegmentReader r((tmp.path / "00000001.seg").string());
  EXPECT_TRUE(r.sealed());
  EXPECT_EQ(r.version(), 2u);
  EXPECT_EQ(r.run_id(), rid);
  ASSERT_EQ(r.records(), 1u);
}

// ------------------------------------------- engine acceptance round trip ----

/// Deterministic skewed engine stream shared by both acceptance tests.
std::vector<Key128> engine_stream(const Hierarchy& h, std::size_t n) {
  Xoroshiro128 rng(2024);
  std::vector<Key128> keys;
  keys.reserve(n);
  const auto victim = static_cast<std::uint32_t>(0xCB007100);  // 203.0.113.0/24
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bounded(10) < 3) {
      keys.push_back(Key128::from_pair(static_cast<std::uint32_t>(rng()),
                                       victim | static_cast<std::uint32_t>(
                                                    rng.bounded(256))));
    } else {
      keys.push_back(random_key(h, rng));
    }
  }
  return keys;
}

TEST(EngineArchive, ColdReopenMatchesTrendSnapshotByteForByte) {
  TempDir tmp("engine");
  EngineConfig cfg;
  cfg.monitor.hierarchy = HierarchyKind::kIpv4TwoDimBytes;
  cfg.monitor.algorithm = AlgorithmKind::kRhhh;
  cfg.monitor.eps = 0.05;
  cfg.monitor.delta = 0.05;
  cfg.monitor.seed = 31;
  cfg.workers = 3;
  cfg.producers = 1;
  cfg.history_depth = 3;
  cfg.archive.dir = tmp.str();
  cfg.archive.segment_bytes = 256 << 10;  // several segments over the run
  HhhEngine eng(cfg);
  const Hierarchy& h = eng.hierarchy();

  constexpr std::uint64_t kEpoch = 40000;
  constexpr std::uint64_t kRotations = 5;
  const std::vector<Key128> keys = engine_stream(h, kEpoch * kRotations + 9000);

  eng.start();
  HhhEngine::Producer& prod = eng.producer(0);
  std::uint64_t next_rotate = kEpoch;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    prod.ingest(keys[i]);
    if (i + 1 == next_rotate) {
      prod.flush();
      eng.rotate_epoch();
      // A mid-run poll: windows merged now reach the final view shifted.
      if (next_rotate == 3 * kEpoch) (void)eng.trend_snapshot();
      next_rotate += kEpoch;
    }
  }
  prod.flush();

  // The in-memory K-window view, taken while the engine is still live.
  const TrendSnapshot trend = eng.trend_snapshot();
  ASSERT_EQ(trend.sealed_windows(), 3u);
  eng.stop();  // drains the archiver queue and seals the segment

  const EngineStats s = eng.stats();
  EXPECT_EQ(s.archived_windows, kRotations);
  EXPECT_EQ(s.archive_queue_drops, 0u);
  EXPECT_EQ(s.archive_errors, 0u);

  // Cold reopen: every rotation was persisted, and the last K windows
  // answer byte-identically to the pre-shutdown trend_snapshot().
  const auto ar = store::WindowArchive::open_read(tmp.str());
  ASSERT_EQ(ar.windows(), kRotations);
  EXPECT_FALSE(ar.truncated_tail());
  const auto latest = ar.last(trend.sealed_windows());
  ASSERT_EQ(latest.size(), trend.sealed_windows());
  for (std::size_t age = 0; age < latest.size(); ++age) {
    const RhhhSpaceSaving& mem = trend.window_algorithm(age);
    const RhhhSpaceSaving& disk = *latest[age].window;
    EXPECT_EQ(latest[age].meta.epoch, kRotations - age);
    ASSERT_EQ(disk.stream_length(), mem.stream_length()) << "age " << age;
    EXPECT_EQ(latest[age].meta.drops, trend.window_drops(age)) << "age " << age;
    // Full serialized images, not just answers: seeds, roster order and
    // every counter must match, whichever age the query first merged at.
    EXPECT_EQ(store::encode_window(latest[age].meta, cfg.monitor.hierarchy, mem),
              store::encode_window(latest[age].meta, cfg.monitor.hierarchy, disk))
        << "age " << age;
    EXPECT_GT(latest[age].meta.duration_ns, 0u);
    EXPECT_GE(latest[age].meta.wall_end_ns, latest[age].meta.wall_start_ns);
  }

  // Epoch-aligned metadata: stream lengths equal the planted epoch size.
  for (const store::WindowMeta& m : ar.list()) {
    EXPECT_EQ(m.stream_length, kEpoch);
  }
}

TEST(EngineArchive, RestartContinuesTheStore) {
  TempDir tmp("restart");
  EngineConfig cfg;
  cfg.monitor.hierarchy = HierarchyKind::kIpv4TwoDimBytes;
  cfg.monitor.eps = 0.1;
  cfg.monitor.delta = 0.1;
  cfg.monitor.seed = 77;
  cfg.workers = 2;
  cfg.producers = 1;
  cfg.archive.dir = tmp.str();

  const auto run_once = [&](std::uint64_t seed) {
    HhhEngine eng(cfg);
    const std::vector<Key128> keys = engine_stream(eng.hierarchy(), 30000);
    eng.start();
    HhhEngine::Producer& prod = eng.producer(0);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      prod.ingest(keys[i] ^ Key128::from_u64(seed));
      if ((i + 1) % 10000 == 0) {
        prod.flush();
        eng.rotate_epoch();
      }
    }
    prod.flush();
    eng.stop();
    return eng.stats().archived_windows;
  };
  const std::uint64_t first = run_once(0);
  const std::uint64_t second = run_once(1);
  EXPECT_EQ(first, 3u);
  EXPECT_EQ(second, 3u);

  const auto ar = store::WindowArchive::open_read(tmp.str());
  EXPECT_EQ(ar.windows(), 6u);
  EXPECT_GE(ar.segments(), 2u);  // one per engine run
  // The two runs' windows replay in order; per-run epochs restart at 1.
  const auto metas = ar.list();
  EXPECT_EQ(metas[0].epoch, 1u);
  EXPECT_EQ(metas[3].epoch, 1u);
}

}  // namespace
}  // namespace rhhh
