// WindowArchive: the durable window store over a directory of segments.
//
// A store directory holds numbered append-only segment files
// (00000001.seg, 00000002.seg, ...; see store/segment.hpp for the file
// format). Windows are strictly append-ordered across segments, so the
// catalog -- every record of every segment, oldest first -- is the full
// history, and queries are answered by decoding the relevant records and
// merging them with LatticeHhh::merge exactly like the engine's own
// trend_snapshot():
//
//   * last(k)        -- the k most recent windows, newest first (the age
//                       order trend_snapshot() uses), each reproducing its
//                       in-memory HHH sets byte for byte.
//   * range(a, b)    -- every window whose wall-clock span overlaps
//                       [a, b], oldest first (time-range queries).
//   * merged_last /  -- one network-wide lattice folding the selected
//     merged_range      windows together, drops included in its N. Only
//                       the oldest is decoded into a lattice; each newer
//                       window merges in from its record's rosters, with
//                       the same result as merging read() windows oldest
//                       first.
//   * replay()       -- a forward iterator over the whole history for
//                       offline reprocessing.
//
// Write side: open_write() continues the directory's segment numbering,
// append() frames + CRCs each window, rolls segments by size/age and
// applies retention-by-bytes (whole oldest segments deleted -- the
// Akumuli-style compaction unit). A WindowArchive instance is not
// thread-safe; the engine gives its archiver thread exclusive ownership.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "store/segment.hpp"
#include "store/serde.hpp"

namespace rhhh::obs {
class Counter;    // obs/metrics.hpp -- forward-declared; the archive holds
class Gauge;      // raw pointers to registry-owned instruments so it stays
class Histogram;  // movable (no `this`-capturing samplers; see bind_metrics
class TraceRing;  // in archive.cpp).
}

namespace rhhh::store {

/// One decoded window: metadata plus a lattice that answers
/// output()/estimate() exactly as the archived instance did. The lattice
/// references the archive's hierarchy -- do not outlive the archive.
struct ArchivedWindow {
  WindowMeta meta;
  std::unique_ptr<RhhhSpaceSaving> window;
};

class WindowArchive {
 public:
  /// Opens an existing store read-only (the directory must exist). Torn
  /// segments are scanned and their valid prefix served; see
  /// truncated_tail().
  [[nodiscard]] static WindowArchive open_read(const std::string& dir);
  /// Opens (creating the directory if needed) for appending. Existing
  /// segments join the catalog and numbering continues after them; a new
  /// segment starts on the first append.
  [[nodiscard]] static WindowArchive open_write(const ArchiveConfig& cfg);

  WindowArchive(WindowArchive&&) noexcept = default;
  WindowArchive& operator=(WindowArchive&&) noexcept = default;
  WindowArchive(const WindowArchive&) = delete;
  WindowArchive& operator=(const WindowArchive&) = delete;
  ~WindowArchive();

  // -- write side -----------------------------------------------------------
  /// Serializes and appends one sealed window; rolls the segment and
  /// applies retention as configured. Write-mode only (throws otherwise).
  /// Every window of one store must share a hierarchy kind and lattice
  /// configuration (validated; throws std::invalid_argument).
  void append(const WindowMeta& meta, HierarchyKind kind, const RhhhSpaceSaving& w);
  /// Seals the segment being written (footer + close). Idempotent; also
  /// run by the destructor. Read APIs work before and after.
  void close();

  // -- catalog --------------------------------------------------------------
  [[nodiscard]] std::size_t windows() const noexcept { return catalog_.size(); }
  [[nodiscard]] std::size_t segments() const noexcept { return seg_paths_.size(); }
  /// Store footprint in bytes (all segments, the open one included).
  [[nodiscard]] std::uint64_t total_bytes() const;
  /// True when any segment had a torn tail (crash recovery dropped the
  /// unreadable suffix; everything indexed is still valid).
  [[nodiscard]] bool truncated_tail() const noexcept { return truncated_; }
  /// The store's hierarchy, reconstructed from the records (nullptr while
  /// the store is empty).
  [[nodiscard]] const Hierarchy* hierarchy() const noexcept {
    return hierarchy_.get();
  }
  [[nodiscard]] const std::string& dir() const noexcept { return cfg_.dir; }
  /// Full metadata of every window, oldest first (decodes record headers).
  [[nodiscard]] std::vector<WindowMeta> list() const;
  /// This writer's archiver-run identity: a random 64-bit id drawn at
  /// open_write() and stamped into every segment header it creates, so
  /// post-hoc analysis can tell which process run produced which segments.
  /// 0 on read-only archives.
  [[nodiscard]] std::uint64_t run_id() const noexcept { return run_id_; }
  /// The run id recorded in segment `s`'s header (0 for v1 segments).
  [[nodiscard]] std::uint64_t segment_run_id(std::size_t s) const {
    return seg_run_ids_.at(s);
  }
  /// fsync() calls issued across all segments written by this instance
  /// (0 under FsyncMode::kNone; the cadence knob's observable effect).
  [[nodiscard]] std::uint64_t fsyncs() const noexcept;

  // -- queries --------------------------------------------------------------
  /// Window `i` in append order (0 = oldest).
  [[nodiscard]] ArchivedWindow read(std::size_t i) const;
  /// The min(k, windows()) most recent windows, NEWEST first -- index 0
  /// matches trend_snapshot()'s age 0.
  [[nodiscard]] std::vector<ArchivedWindow> last(std::size_t k) const;
  /// Windows whose [wall_start_ns, wall_end_ns] span overlaps
  /// [from_ns, to_ns], oldest first.
  [[nodiscard]] std::vector<ArchivedWindow> range(std::int64_t from_ns,
                                                  std::int64_t to_ns) const;
  /// One lattice merging the last k windows (nullptr when the store is
  /// empty); `drops_out`, if non-null, receives the summed attributed
  /// drops (already folded into the merged stream length).
  [[nodiscard]] std::unique_ptr<RhhhSpaceSaving> merged_last(
      std::size_t k, std::uint64_t* drops_out = nullptr) const;
  /// Same over a wall-clock range.
  [[nodiscard]] std::unique_ptr<RhhhSpaceSaving> merged_range(
      std::int64_t from_ns, std::int64_t to_ns,
      std::uint64_t* drops_out = nullptr) const;

  /// Forward cursor over the whole history, oldest first (offline replay).
  class Replay {
   public:
    /// Decodes the next window into `out`; false at the end of history.
    bool next(ArchivedWindow& out);
    [[nodiscard]] std::size_t position() const noexcept { return pos_; }

   private:
    friend class WindowArchive;
    explicit Replay(const WindowArchive* a) : archive_(a) {}
    const WindowArchive* archive_;
    std::size_t pos_ = 0;
  };
  [[nodiscard]] Replay replay() const { return Replay(this); }

  // -- maintenance ----------------------------------------------------------
  /// Offline compaction (store_tool): rewrites torn segments into sealed
  /// ones (their valid prefix survives, the torn tail is dropped for
  /// good), then deletes the oldest segments while the store exceeds
  /// `retain_bytes` (0 = repair only). Not callable while a segment is
  /// open for writing. Returns the number of segments deleted.
  std::size_t compact(std::uint64_t retain_bytes);

 private:
  struct Entry {
    std::size_t seg = 0;  ///< index into seg_paths_
    SegmentIndexEntry rec;
  };

  WindowArchive(ArchiveConfig cfg, bool writable);
  /// Cache registry-owned instruments (ArchiveConfig::telemetry, writable
  /// archives only) and refresh the point-in-time gauges. All pointers are
  /// plain data: moving the archive moves them safely, and nothing needs
  /// unregistering on destruction.
  void bind_metrics();
  void update_gauges();
  void load_catalog();
  void ensure_hierarchy(HierarchyKind kind);
  void roll_if_due(std::int64_t next_wall_start_ns, std::size_t next_payload);
  void apply_retention(std::uint64_t retain_bytes);
  [[nodiscard]] ArchivedWindow decode_entry(const Entry& e) const;
  [[nodiscard]] std::unique_ptr<RhhhSpaceSaving> merge_entries(
      const std::vector<const Entry*>& sel, std::uint64_t* drops_out) const;

  ArchiveConfig cfg_;
  bool writable_ = false;
  bool truncated_ = false;
  std::uint64_t run_id_ = 0;             ///< this writer's identity; 0 read-only
  std::uint64_t fsyncs_sealed_ = 0;      ///< fsyncs of already-sealed segments
  std::vector<std::string> seg_paths_;   ///< sorted, oldest first
  std::vector<std::uint64_t> seg_bytes_; ///< parallel to seg_paths_
  std::vector<std::uint64_t> seg_run_ids_;  ///< parallel to seg_paths_
  std::vector<Entry> catalog_;           ///< append order, oldest first
  std::unique_ptr<Hierarchy> hierarchy_;
  HierarchyKind kind_ = HierarchyKind::kIpv4TwoDimBytes;
  bool have_kind_ = false;
  std::unique_ptr<SegmentWriter> writer_;
  std::uint64_t next_seg_no_ = 1;

  // Telemetry (null when off or read-only): registry-owned instruments,
  // cached once in bind_metrics().
  obs::Counter* m_bytes_ = nullptr;        ///< payload+frame bytes appended
  obs::Counter* m_rolls_ = nullptr;        ///< segments sealed by roll/close
  obs::Histogram* m_append_ns_ = nullptr;  ///< per-window append latency
  obs::Histogram* m_fsync_ns_ = nullptr;   ///< attached to segment writers
  obs::Histogram* m_compact_ns_ = nullptr; ///< compact() latency
  obs::Gauge* m_segments_ = nullptr;       ///< point-in-time segment count
  obs::Gauge* m_windows_ = nullptr;        ///< point-in-time window count
  obs::Gauge* m_total_bytes_ = nullptr;    ///< point-in-time store bytes
  obs::TraceRing* m_trace_ = nullptr;      ///< roll/compaction events
};

}  // namespace rhhh::store
