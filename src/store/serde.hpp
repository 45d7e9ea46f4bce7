// Binary serialization of sealed HHH windows (the durable-store wire format).
//
// A *window record* is the self-contained byte image of one sealed,
// network-wide window: the merged lattice state (per-node Space-Saving
// rosters in counter-array order, so a reload reproduces output() and
// estimate() byte-for-byte), the construction parameters needed to rebuild
// a configuration-identical LatticeHhh, and the window metadata (epoch
// ordinal, wall-clock span, live duration, attributed drops). Records are
// what the segment log (store/segment.hpp) frames with length + CRC32.
//
// Format rules:
//   * endianness-stable: every integer is encoded little-endian by explicit
//     byte shifts (no memcpy of host-order words); doubles travel as their
//     IEEE-754 bit patterns.
//   * versioned: the record starts with a format version; decoders reject
//     versions they do not understand loudly (std::runtime_error), never by
//     guessing.
//   * forward-compatible header: the fixed header carries its own byte
//     length, so a v1 reader can skip over fields appended by a later
//     writer as long as the major version still matches.
//
// Corrupt input (truncation, impossible counts, entries exceeding the
// declared capacity) throws std::runtime_error from the decoder -- the
// store layer's contract is "fail loudly, never undefined behavior".
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "hhh/lattice_hhh.hpp"

namespace rhhh::store {

using Bytes = std::vector<std::uint8_t>;

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `data`, computed
/// slicing-by-16. `seed` chains incremental computations (pass a previous
/// return value).
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                                  std::uint32_t seed = 0) noexcept;
[[nodiscard]] inline std::uint32_t crc32(const Bytes& b) noexcept {
  return crc32(b.data(), b.size());
}

/// Little-endian append-only encoder over a growable byte buffer. On
/// little-endian hosts multi-byte appends are bulk copies (the encode path
/// runs on the engine's rotation path); big-endian hosts take the explicit
/// byte-shift route, so the wire format never depends on host order.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(&v, sizeof v); }
  void u32(std::uint32_t v) { append_le(&v, sizeof v); }
  void u64(std::uint64_t v) { append_le(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);  ///< IEEE-754 bit pattern, little-endian
  /// Overwrite a previously written u32 (length backpatching).
  void patch_u32(std::size_t offset, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_[offset + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  void reserve(std::size_t n) { buf_.reserve(n); }
  [[nodiscard]] const Bytes& bytes() const noexcept { return buf_; }
  [[nodiscard]] Bytes take() noexcept { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  template <class T>
  void append_le(const T* v, std::size_t n) {
    if constexpr (std::endian::native == std::endian::little) {
      const auto* p = reinterpret_cast<const std::uint8_t*>(v);
      buf_.insert(buf_.end(), p, p + n);
    } else {
      auto u = static_cast<std::uint64_t>(*v);
      for (std::size_t i = 0; i < n; ++i) {
        buf_.push_back(static_cast<std::uint8_t>(u >> (8 * i)));
      }
    }
  }

  Bytes buf_;
};

/// Little-endian bounds-checked decoder; every read past the end throws
/// std::runtime_error (truncated input must never become UB).
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t len) : data_(data), len_(len) {}
  explicit ByteReader(std::span<const std::uint8_t> s)
      : data_(s.data()), len_(s.size()) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64();
  void skip(std::size_t n);

  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return len_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

/// The wire format version this build writes (and the only major version it
/// reads). Bump on any incompatible layout change.
inline constexpr std::uint32_t kWindowFormatVersion = 1;

/// Per-window metadata persisted alongside the lattice state.
struct WindowMeta {
  std::uint64_t epoch = 0;         ///< 1-based window ordinal within its run
  std::int64_t wall_start_ns = 0;  ///< system_clock ns when the window opened
  std::int64_t wall_end_ns = 0;    ///< system_clock ns when it was sealed
  std::uint64_t duration_ns = 0;   ///< steady-clock live duration
  std::uint64_t drops = 0;         ///< drops attributed (folded into stream_length)
  std::uint64_t stream_length = 0; ///< N of the window, drops included
  std::uint64_t updates = 0;       ///< counter increments (introspection)
};

/// The lattice construction parameters stored with every record, enough to
/// rebuild a configuration-identical instance without out-of-band state.
struct StoredLatticeConfig {
  HierarchyKind hierarchy = HierarchyKind::kIpv4TwoDimBytes;
  LatticeMode mode = LatticeMode::kRhhh;
  std::uint32_t H = 0;  ///< lattice size, cross-checked against the hierarchy
  LatticeParams params; ///< V resolved, counters_override pinned to counters/node
};

/// Everything cheap to know about a record without rebuilding the lattice:
/// what segment indexing, `store_tool inspect` and time-range pruning read.
struct WindowHeader {
  std::uint32_t version = 0;
  StoredLatticeConfig config;
  WindowMeta meta;
};

/// Serializes one sealed window. `kind` names the hierarchy `w` was built
/// over (the declarative enum, so a cold reader can rebuild it).
[[nodiscard]] Bytes encode_window(const WindowMeta& meta, HierarchyKind kind,
                                  const RhhhSpaceSaving& w);

/// Decodes the fixed header only (version, config, metadata) -- no lattice
/// reconstruction. Throws std::runtime_error on truncation or version skew.
[[nodiscard]] WindowHeader decode_window_header(const std::uint8_t* data,
                                                std::size_t len);

/// The one reader of a whole record, behind decode_window() and the
/// archive's merged queries, so every check lives here: format version and
/// header fields, the lattice size H against `h` and, when `expected_kind`
/// is non-null, the exact hierarchy kind (see decode_window()), each node's
/// roster against the stored counters-per-node capacity, zero counts,
/// error > count, and trailing bytes -- each a std::runtime_error.
/// `on_header` sees the header once it has passed; anything it throws
/// propagates unchanged. Then `on_node(d, roster)` sees node d's roster in
/// counter-array order, with the stored total, evictions 0 (records do not
/// carry them) and the stored capacity; the entries are only valid during
/// the call. A std::invalid_argument from `on_node` (an impossible roster,
/// such as a repeated key) becomes a "store: node d roster rejected"
/// std::runtime_error. Returns the header.
WindowHeader read_window(const std::uint8_t* data, std::size_t len,
                         const Hierarchy& h, const HierarchyKind* expected_kind,
                         const std::function<void(const WindowHeader&)>& on_header,
                         const std::function<void(std::uint32_t, const Roster<Key128>&)>& on_node);

/// Fully decodes a record into a fresh lattice over `h`, which must match
/// the stored hierarchy: the lattice sizes (H) must agree, and when
/// `expected_kind` is non-null the stored kind must equal it exactly --
/// pass it whenever the caller knows the store's kind, because distinct
/// kinds can share an H (kIpv4OneDimBits and kIpv6Nibbles are both H=33)
/// and must not silently decode into each other. Throws std::runtime_error
/// on any mismatch. The returned instance reproduces the serialized
/// window's output()/estimate() exactly. `meta_out`, if non-null, receives
/// the stored metadata.
[[nodiscard]] std::unique_ptr<RhhhSpaceSaving> decode_window(
    const std::uint8_t* data, std::size_t len, const Hierarchy& h,
    WindowMeta* meta_out = nullptr, const HierarchyKind* expected_kind = nullptr);

}  // namespace rhhh::store
