#include "store/serde.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace rhhh::store {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("store: " + what);
}

/// Little-endian load: bulk copy on LE hosts, byte shifts elsewhere.
template <class T>
T load_le(const std::uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
  } else {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    return static_cast<T>(v);
  }
}

/// Slicing-by-16 tables: t[0] is the classic bytewise table; t[k][b] is the
/// CRC contribution of byte b followed by k zero bytes, so one lookup per
/// byte of a 16-byte block replaces 16 dependent table steps.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

const CrcTables& crc_tables() {
  static const CrcTables t = make_crc_tables();
  return t;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t seed) noexcept {
  const CrcTables& t = crc_tables();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  // Byte j of each block takes table 15 - j. Words are loaded little-endian,
  // so the value is the same on any host.
  for (; len >= 16; data += 16, len -= 16) {
    const std::uint32_t a = load_le<std::uint32_t>(data) ^ c;
    const std::uint32_t b = load_le<std::uint32_t>(data + 4);
    const std::uint32_t d = load_le<std::uint32_t>(data + 8);
    const std::uint32_t e = load_le<std::uint32_t>(data + 12);
    c = t[15][a & 0xFFu] ^ t[14][(a >> 8) & 0xFFu] ^ t[13][(a >> 16) & 0xFFu] ^
        t[12][a >> 24] ^ t[11][b & 0xFFu] ^ t[10][(b >> 8) & 0xFFu] ^
        t[9][(b >> 16) & 0xFFu] ^ t[8][b >> 24] ^ t[7][d & 0xFFu] ^
        t[6][(d >> 8) & 0xFFu] ^ t[5][(d >> 16) & 0xFFu] ^ t[4][d >> 24] ^
        t[3][e & 0xFFu] ^ t[2][(e >> 8) & 0xFFu] ^ t[1][(e >> 16) & 0xFFu] ^
        t[0][e >> 24];
  }
  for (; len > 0; ++data, --len) c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

std::uint8_t ByteReader::u8() {
  if (remaining() < 1) fail("truncated record (u8 past end)");
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  if (remaining() < 2) fail("truncated record (u16 past end)");
  const std::uint16_t v = load_le<std::uint16_t>(data_ + pos_);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  if (remaining() < 4) fail("truncated record (u32 past end)");
  const std::uint32_t v = load_le<std::uint32_t>(data_ + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  if (remaining() < 8) fail("truncated record (u64 past end)");
  const std::uint64_t v = load_le<std::uint64_t>(data_ + pos_);
  pos_ += 8;
  return v;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

void ByteReader::skip(std::size_t n) {
  if (remaining() < n) fail("truncated record (skip past end)");
  pos_ += n;
}

namespace {

// Fixed-header layout (v1), after the leading `u32 version` and
// `u32 header_bytes` pair. header_bytes counts everything from the version
// word up to the first per-node roster, so a same-major reader can skip
// fields a later minor revision appends.
//
//   u8  hierarchy_kind   u8  mode   u16 reserved
//   u32 H    u32 V    u32 r    u32 reserved
//   f64 eps  f64 delta
//   u64 seed u64 reserved u64 counters_per_node
//   u64 epoch  i64 wall_start_ns  i64 wall_end_ns
//   u64 duration_ns  u64 drops  u64 stream_length  u64 updates
//
// Node rosters follow: H times { u32 entries, u32 reserved, u64 total,
// entries x (u64 key_hi, u64 key_lo, u64 count, u64 error) }.
//
// The u64 after `seed` once held a per-node backend seed that Space-Saving
// never used. It is written as 0 and ignored on read, so a record an older
// build wrote with a nonzero value there still decodes.

constexpr std::uint8_t kMaxHierarchyKind =
    static_cast<std::uint8_t>(HierarchyKind::kIpv6Nibbles);
constexpr std::uint8_t kMaxLatticeMode =
    static_cast<std::uint8_t>(LatticeMode::kSampledMst);

void encode_header(ByteWriter& w, const WindowMeta& meta, HierarchyKind kind,
                   const RhhhSpaceSaving& lat) {
  w.u8(static_cast<std::uint8_t>(kind));
  w.u8(static_cast<std::uint8_t>(lat.mode()));
  w.u16(0);
  w.u32(lat.H());
  w.u32(lat.V());
  w.u32(lat.params().r);
  w.u32(0);
  w.f64(lat.params().eps);
  w.f64(lat.params().delta);
  w.u64(lat.params().seed);
  w.u64(0);  // reserved: written as 0, ignored on read
  w.u64(lat.counters_per_node());
  w.u64(meta.epoch);
  w.i64(meta.wall_start_ns);
  w.i64(meta.wall_end_ns);
  w.u64(meta.duration_ns);
  w.u64(meta.drops);
  w.u64(meta.stream_length);
  w.u64(meta.updates);
}

WindowHeader read_header(ByteReader& r) {
  WindowHeader h;
  h.version = r.u32();
  if (h.version != kWindowFormatVersion) {
    fail("unsupported window format version " + std::to_string(h.version) +
         " (this build reads version " + std::to_string(kWindowFormatVersion) +
         ")");
  }
  const std::uint32_t header_bytes = r.u32();
  const std::size_t body_start = r.pos();

  const std::uint8_t kind = r.u8();
  if (kind > kMaxHierarchyKind) {
    fail("invalid hierarchy kind " + std::to_string(kind));
  }
  h.config.hierarchy = static_cast<HierarchyKind>(kind);
  const std::uint8_t mode = r.u8();
  if (mode > kMaxLatticeMode) fail("invalid lattice mode " + std::to_string(mode));
  h.config.mode = static_cast<LatticeMode>(mode);
  (void)r.u16();
  h.config.H = r.u32();
  h.config.params.V = r.u32();
  h.config.params.r = r.u32();
  (void)r.u32();
  h.config.params.eps = r.f64();
  h.config.params.delta = r.f64();
  h.config.params.seed = r.u64();
  (void)r.u64();
  const std::uint64_t counters = r.u64();
  if (counters == 0 || counters > (1u << 30)) {
    fail("implausible counters-per-node " + std::to_string(counters));
  }
  h.config.params.counters_override = static_cast<std::size_t>(counters);
  h.meta.epoch = r.u64();
  h.meta.wall_start_ns = r.i64();
  h.meta.wall_end_ns = r.i64();
  h.meta.duration_ns = r.u64();
  h.meta.drops = r.u64();
  h.meta.stream_length = r.u64();
  h.meta.updates = r.u64();

  // Forward compatibility: a later same-major writer may have appended
  // fields; header_bytes delimits them. Shorter-than-written headers are
  // corrupt, not merely old.
  const std::size_t consumed = 8 + (r.pos() - body_start);
  if (header_bytes < consumed) fail("header shorter than the v1 fixed fields");
  r.skip(header_bytes - consumed);
  return h;
}

}  // namespace

Bytes encode_window(const WindowMeta& meta, HierarchyKind kind,
                    const RhhhSpaceSaving& w) {
  ByteWriter out;
  // One upfront reservation: 32 bytes per entry + 16 per node + the fixed
  // header. encode runs on the engine's rotation path, so no reallocs.
  std::size_t entries = 0;
  for (std::uint32_t d = 0; d < w.H(); ++d) entries += w.instance(d).size();
  out.reserve(160 + 16 * static_cast<std::size_t>(w.H()) + 32 * entries);
  out.u32(kWindowFormatVersion);
  out.u32(0);  // header_bytes backpatched below
  encode_header(out, meta, kind, w);
  // Backpatch the header length (version + length words included).
  out.patch_u32(4, static_cast<std::uint32_t>(out.size()));

  // Per-node Space-Saving rosters in counter-array order: reloading in the
  // same order reproduces the array layout, hence output()'s candidate
  // iteration order, byte for byte.
  for (std::uint32_t d = 0; d < w.H(); ++d) {
    const auto& inst = w.instance(d);
    out.u32(static_cast<std::uint32_t>(inst.size()));
    out.u32(0);
    out.u64(inst.total());
    inst.for_each([&](const Key128& k, std::uint64_t up, std::uint64_t lo) {
      out.u64(k.hi);
      out.u64(k.lo);
      out.u64(up);
      out.u64(up - lo);  // error
    });
  }
  return out.take();
}

WindowHeader decode_window_header(const std::uint8_t* data, std::size_t len) {
  ByteReader r(data, len);
  return read_header(r);
}

WindowHeader read_window(const std::uint8_t* data, std::size_t len,
                         const Hierarchy& h, const HierarchyKind* expected_kind,
                         const std::function<void(const WindowHeader&)>& on_header,
                         const std::function<void(std::uint32_t, const Roster<Key128>&)>& on_node) {
  ByteReader r(data, len);
  const WindowHeader hdr = read_header(r);
  if (hdr.config.H != h.size()) {
    fail("hierarchy mismatch: record has H=" + std::to_string(hdr.config.H) +
         ", supplied hierarchy has H=" + std::to_string(h.size()));
  }
  // H alone cannot distinguish every kind (1D-bit IPv4 and nibble IPv6 are
  // both H=33): enforce the exact kind whenever the caller knows it.
  if (expected_kind != nullptr && hdr.config.hierarchy != *expected_kind) {
    fail("hierarchy mismatch: record is " +
         std::string(to_string(hdr.config.hierarchy)) + ", store expects " +
         std::string(to_string(*expected_kind)));
  }
  on_header(hdr);

  const std::size_t cap = hdr.config.params.counters_override;
  std::vector<HhEntry<Key128>> entries;
  for (std::uint32_t d = 0; d < hdr.config.H; ++d) {
    const std::uint32_t n = r.u32();
    if (n > cap) {
      fail("node " + std::to_string(d) + " roster of " + std::to_string(n) +
           " entries exceeds capacity " + std::to_string(cap));
    }
    (void)r.u32();
    const std::uint64_t total = r.u64();
    entries.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      HhEntry<Key128>& e = entries[i];
      e.key.hi = r.u64();
      e.key.lo = r.u64();
      e.upper = r.u64();
      const std::uint64_t error = r.u64();
      if (e.upper == 0 || error > e.upper) {
        fail("node " + std::to_string(d) + " entry " + std::to_string(i) +
             " has impossible count/error");
      }
      e.lower = e.upper - error;
    }
    try {
      on_node(d, Roster<Key128>{entries, total, 0, cap});
    } catch (const std::invalid_argument& e) {
      fail("node " + std::to_string(d) + " roster rejected: " + e.what());
    }
  }
  if (r.remaining() != 0) fail("trailing bytes after the last node roster");
  return hdr;
}

std::unique_ptr<RhhhSpaceSaving> decode_window(const std::uint8_t* data,
                                               std::size_t len, const Hierarchy& h,
                                               WindowMeta* meta_out,
                                               const HierarchyKind* expected_kind) {
  std::unique_ptr<RhhhSpaceSaving> lat;
  const WindowHeader hdr = read_window(
      data, len, h, expected_kind,
      [&](const WindowHeader& hd) {
        lat = std::make_unique<RhhhSpaceSaving>(h, hd.config.mode, hd.config.params);
      },
      [&](std::uint32_t d, const Roster<Key128>& roster) {
        lat->restore_node(d, roster.entries, roster.total);
      });
  lat->restore_stream(hdr.meta.stream_length, hdr.meta.updates);
  if (meta_out != nullptr) *meta_out = hdr.meta;
  return lat;
}

}  // namespace rhhh::store
