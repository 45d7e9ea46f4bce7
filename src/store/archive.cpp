#include "store/archive.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace_ring.hpp"
#include "util/bits.hpp"

namespace rhhh::store {

namespace fs = std::filesystem;

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("store: " + what);
}

std::string segment_name(std::uint64_t no) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%08" PRIu64 ".seg", no);
  return std::string(buf);
}

/// The numeric part of a segment file name, or 0 for foreign files.
std::uint64_t segment_number(const fs::path& p) {
  if (p.extension() != ".seg") return 0;
  const std::string stem = p.stem().string();
  if (stem.size() != 8 ||
      stem.find_first_not_of("0123456789") != std::string::npos) {
    return 0;
  }
  return std::strtoull(stem.c_str(), nullptr, 10);
}

/// A fresh archiver-run identity: random_device entropy folded with the
/// wall clock through mix64, so two runs get distinct ids even on platforms
/// where random_device is deterministic. Never returns 0 (0 = "unknown",
/// the v1 placeholder).
std::uint64_t draw_run_id() {
  std::random_device rd;
  const std::uint64_t entropy =
      (static_cast<std::uint64_t>(rd()) << 32) ^ static_cast<std::uint64_t>(rd());
  const std::uint64_t now = static_cast<std::uint64_t>(
      std::chrono::system_clock::now().time_since_epoch().count());
  const std::uint64_t id = mix64(entropy ^ mix64(now));
  return id != 0 ? id : 1;
}

}  // namespace

WindowArchive::WindowArchive(ArchiveConfig cfg, bool writable)
    : cfg_(std::move(cfg)), writable_(writable) {
  if (cfg_.dir.empty()) fail("archive directory must not be empty");
  if (writable_) {
    run_id_ = draw_run_id();
    std::error_code ec;
    fs::create_directories(cfg_.dir, ec);
    if (ec) fail(cfg_.dir + ": cannot create store directory");
  } else if (!fs::is_directory(cfg_.dir)) {
    fail(cfg_.dir + ": store directory does not exist");
  }
  load_catalog();
  bind_metrics();
}

void WindowArchive::bind_metrics() {
  if (!writable_ || !cfg_.telemetry) return;
  obs::MetricsRegistry& reg =
      cfg_.metrics != nullptr ? *cfg_.metrics : obs::MetricsRegistry::global();
  m_bytes_ = &reg.counter("rhhh_store_bytes_written_total",
                          "window record bytes appended (frames included)");
  m_rolls_ = &reg.counter("rhhh_store_segment_rolls_total",
                          "segments sealed by size/age roll or close");
  m_append_ns_ = &reg.histogram("rhhh_store_append_ns",
                                "per-window append latency (ns)");
  m_fsync_ns_ =
      &reg.histogram("rhhh_store_fsync_ns", "segment fsync latency (ns)");
  m_compact_ns_ =
      &reg.histogram("rhhh_store_compact_ns", "compaction pass latency (ns)");
  m_segments_ = &reg.gauge("rhhh_store_segments", "segments in the store");
  m_windows_ = &reg.gauge("rhhh_store_windows", "windows in the store");
  m_total_bytes_ = &reg.gauge("rhhh_store_bytes", "store footprint in bytes");
  m_trace_ = &obs::TraceRing::global();
  update_gauges();
}

void WindowArchive::update_gauges() {
  if (m_segments_ == nullptr) return;
  m_segments_->set(static_cast<std::int64_t>(segments()));
  m_windows_->set(static_cast<std::int64_t>(windows()));
  m_total_bytes_->set(static_cast<std::int64_t>(total_bytes()));
}

WindowArchive::~WindowArchive() {
  try {
    close();
  } catch (...) {  // NOLINT(bugprone-empty-catch): destructor must not throw
  }
}

WindowArchive WindowArchive::open_read(const std::string& dir) {
  ArchiveConfig cfg;
  cfg.dir = dir;
  return WindowArchive(std::move(cfg), /*writable=*/false);
}

WindowArchive WindowArchive::open_write(const ArchiveConfig& cfg) {
  if (!cfg.enabled()) fail("open_write needs a non-empty archive directory");
  return WindowArchive(cfg, /*writable=*/true);
}

void WindowArchive::load_catalog() {
  std::vector<std::pair<std::uint64_t, fs::path>> found;
  for (const fs::directory_entry& de : fs::directory_iterator(cfg_.dir)) {
    if (!de.is_regular_file()) continue;
    const std::uint64_t no = segment_number(de.path());
    if (no != 0) found.emplace_back(no, de.path());
  }
  std::sort(found.begin(), found.end());
  for (const auto& [no, path] : found) {
    SegmentReader reader(path.string());
    truncated_ = truncated_ || reader.truncated_tail() || !reader.sealed();
    const std::size_t seg = seg_paths_.size();
    seg_paths_.push_back(path.string());
    seg_run_ids_.push_back(reader.run_id());
    std::error_code ec;
    const std::uintmax_t bytes = fs::file_size(path, ec);
    seg_bytes_.push_back(ec ? 0 : static_cast<std::uint64_t>(bytes));
    for (const SegmentIndexEntry& rec : reader.index()) {
      catalog_.push_back(Entry{seg, rec});
    }
    next_seg_no_ = no + 1;
  }
  // Establish the hierarchy from the first surviving record, so read-only
  // opens can decode without out-of-band configuration.
  if (!catalog_.empty()) {
    const Entry& e = catalog_.front();
    const Bytes payload =
        read_record_at(seg_paths_[e.seg], e.rec.offset, e.rec.length);
    const WindowHeader h = decode_window_header(payload.data(), payload.size());
    ensure_hierarchy(h.config.hierarchy);
  }
}

void WindowArchive::ensure_hierarchy(HierarchyKind kind) {
  if (!have_kind_) {
    kind_ = kind;
    hierarchy_ = std::make_unique<Hierarchy>(make_hierarchy(kind));
    have_kind_ = true;
    return;
  }
  if (kind != kind_) {
    throw std::invalid_argument(
        "store: window hierarchy kind differs from the store's");
  }
}

std::uint64_t WindowArchive::total_bytes() const {
  std::uint64_t n = 0;
  for (std::size_t s = 0; s < seg_paths_.size(); ++s) {
    // The open segment's on-disk size grows past the snapshot taken at
    // load; the writer knows the live number.
    if (writer_ != nullptr && s + 1 == seg_paths_.size() &&
        writer_->path() == seg_paths_[s]) {
      n += writer_->bytes_written();
    } else {
      n += seg_bytes_[s];
    }
  }
  return n;
}

void WindowArchive::roll_if_due(std::int64_t next_wall_start_ns,
                                std::size_t next_payload) {
  if (writer_ == nullptr) return;
  bool roll = false;
  if (cfg_.segment_bytes > 0 && writer_->records() > 0 &&
      writer_->bytes_written() + next_payload > cfg_.segment_bytes) {
    roll = true;
  }
  if (cfg_.segment_seconds > 0 && writer_->records() > 0 &&
      next_wall_start_ns - writer_->first_wall_ns() >=
          static_cast<std::int64_t>(cfg_.segment_seconds) * 1'000'000'000) {
    roll = true;
  }
  if (!roll) return;
  const std::uint64_t closed_bytes = writer_->bytes_written();
  writer_->seal();
  seg_bytes_.back() = writer_->bytes_written();
  fsyncs_sealed_ += writer_->fsyncs();
  writer_.reset();
  if (cfg_.retain_bytes > 0) apply_retention(cfg_.retain_bytes);
  if (m_rolls_ != nullptr) {
    m_rolls_->inc();
    m_trace_->record(obs::TraceEvent::kSegmentRoll,
                     static_cast<std::int64_t>(obs::now_ns()), next_seg_no_,
                     closed_bytes);
  }
}

void WindowArchive::append(const WindowMeta& meta, HierarchyKind kind,
                           const RhhhSpaceSaving& w) {
  if (!writable_) fail("append on a read-only archive");
  ensure_hierarchy(kind);
  const std::uint64_t obs_t0 = m_append_ns_ != nullptr ? obs::now_ns() : 0;
  const Bytes payload = encode_window(meta, kind, w);
  roll_if_due(meta.wall_start_ns, payload.size());
  if (writer_ == nullptr) {
    const std::string path =
        (fs::path(cfg_.dir) / segment_name(next_seg_no_++)).string();
    writer_ = std::make_unique<SegmentWriter>(path, cfg_.fsync_mode, run_id_);
    writer_->set_fsync_probe(m_fsync_ns_);
    seg_paths_.push_back(path);
    seg_run_ids_.push_back(run_id_);
    seg_bytes_.push_back(writer_->bytes_written());
  }
  const std::uint64_t before = writer_->bytes_written();
  const SegmentIndexEntry rec =
      writer_->append(payload, meta.epoch, meta.wall_start_ns, meta.wall_end_ns);
  catalog_.push_back(Entry{seg_paths_.size() - 1, rec});
  if (m_append_ns_ != nullptr) {
    m_append_ns_->record_since(obs_t0);
    m_bytes_->add(writer_->bytes_written() - before);
    update_gauges();
  }
}

void WindowArchive::close() {
  if (writer_ == nullptr) return;
  writer_->seal();
  seg_bytes_.back() = writer_->bytes_written();
  fsyncs_sealed_ += writer_->fsyncs();
  writer_.reset();
  if (cfg_.retain_bytes > 0) apply_retention(cfg_.retain_bytes);
  if (m_rolls_ != nullptr) {
    m_rolls_->inc();
    update_gauges();
  }
}

std::uint64_t WindowArchive::fsyncs() const noexcept {
  return fsyncs_sealed_ + (writer_ != nullptr ? writer_->fsyncs() : 0);
}

void WindowArchive::apply_retention(std::uint64_t retain_bytes) {
  // Delete whole oldest segments until the store fits; the segment being
  // written (always the newest) is never deleted.
  while (seg_paths_.size() > 1 && total_bytes() > retain_bytes) {
    const std::string victim = seg_paths_.front();
    std::error_code ec;
    fs::remove(victim, ec);
    if (ec) fail(victim + ": cannot delete during retention");
    seg_paths_.erase(seg_paths_.begin());
    seg_bytes_.erase(seg_bytes_.begin());
    seg_run_ids_.erase(seg_run_ids_.begin());
    std::erase_if(catalog_, [](const Entry& e) { return e.seg == 0; });
    for (Entry& e : catalog_) --e.seg;
  }
}

std::vector<WindowMeta> WindowArchive::list() const {
  std::vector<WindowMeta> out;
  out.reserve(catalog_.size());
  for (const Entry& e : catalog_) {
    const Bytes payload =
        read_record_at(seg_paths_[e.seg], e.rec.offset, e.rec.length);
    out.push_back(decode_window_header(payload.data(), payload.size()).meta);
  }
  return out;
}

ArchivedWindow WindowArchive::decode_entry(const Entry& e) const {
  if (hierarchy_ == nullptr) fail("decode on an empty archive");
  const Bytes payload =
      read_record_at(seg_paths_[e.seg], e.rec.offset, e.rec.length);
  ArchivedWindow out;
  // Pin the exact kind: a foreign same-H segment copied into this store
  // directory must fail loudly, never format under the wrong hierarchy.
  out.window = decode_window(payload.data(), payload.size(), *hierarchy_,
                             &out.meta, &kind_);
  return out;
}

ArchivedWindow WindowArchive::read(std::size_t i) const {
  if (i >= catalog_.size()) fail("window index out of range");
  return decode_entry(catalog_[i]);
}

std::vector<ArchivedWindow> WindowArchive::last(std::size_t k) const {
  std::vector<ArchivedWindow> out;
  const std::size_t m = std::min(k, catalog_.size());
  out.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    out.push_back(decode_entry(catalog_[catalog_.size() - 1 - i]));
  }
  return out;
}

std::vector<ArchivedWindow> WindowArchive::range(std::int64_t from_ns,
                                                 std::int64_t to_ns) const {
  std::vector<ArchivedWindow> out;
  for (const Entry& e : catalog_) {
    if (e.rec.wall_end_ns < from_ns || e.rec.wall_start_ns > to_ns) continue;
    out.push_back(decode_entry(e));
  }
  return out;
}

std::unique_ptr<RhhhSpaceSaving> WindowArchive::merge_entries(
    const std::vector<const Entry*>& sel, std::uint64_t* drops_out) const {
  if (drops_out != nullptr) *drops_out = 0;
  if (sel.empty()) return nullptr;
  ArchivedWindow oldest = decode_entry(*sel.front());
  std::unique_ptr<RhhhSpaceSaving> merged = std::move(oldest.window);
  std::uint64_t drops = oldest.meta.drops;
  // Every newer window merges straight from its record bytes, node by
  // node: no lattice, index or bucket list is built for it. The result is
  // the oldest-first chain of LatticeHhh::merge over read() windows, byte
  // for byte, and a record is rejected where read() or merge() would
  // reject it, with the same exception type.
  for (std::size_t i = 1; i < sel.size(); ++i) {
    const Entry& e = *sel[i];
    const Bytes payload = read_record_at(seg_paths_[e.seg], e.rec.offset, e.rec.length);
    const WindowHeader hdr = read_window(
        payload.data(), payload.size(), *hierarchy_, &kind_,
        [&](const WindowHeader& h) {
          merged->require_mergeable(h.config.mode, h.config.params);
        },
        [&](std::uint32_t d, const Roster<Key128>& roster) {
          merged->merge_node(d, roster);
        });
    merged->restore_stream(merged->stream_length() + hdr.meta.stream_length,
                           merged->updates_performed() + hdr.meta.updates);
    drops += hdr.meta.drops;
  }
  if (drops_out != nullptr) *drops_out = drops;
  return merged;
}

std::unique_ptr<RhhhSpaceSaving> WindowArchive::merged_last(
    std::size_t k, std::uint64_t* drops_out) const {
  std::vector<const Entry*> sel;
  const std::size_t m = std::min(k, catalog_.size());
  sel.reserve(m);
  // Oldest-first merge order: deterministic and independent of k vs size.
  for (std::size_t i = catalog_.size() - m; i < catalog_.size(); ++i) {
    sel.push_back(&catalog_[i]);
  }
  return merge_entries(sel, drops_out);
}

std::unique_ptr<RhhhSpaceSaving> WindowArchive::merged_range(
    std::int64_t from_ns, std::int64_t to_ns, std::uint64_t* drops_out) const {
  std::vector<const Entry*> sel;
  for (const Entry& e : catalog_) {
    if (e.rec.wall_end_ns < from_ns || e.rec.wall_start_ns > to_ns) continue;
    sel.push_back(&e);
  }
  return merge_entries(sel, drops_out);
}

bool WindowArchive::Replay::next(ArchivedWindow& out) {
  if (pos_ >= archive_->windows()) return false;
  out = archive_->read(pos_++);
  return true;
}

std::size_t WindowArchive::compact(std::uint64_t retain_bytes) {
  if (writer_ != nullptr) fail("compact while a segment is open for writing");
  const std::uint64_t obs_t0 = m_compact_ns_ != nullptr ? obs::now_ns() : 0;
  // Repair pass: rewrite every torn segment as a sealed one (the valid
  // record prefix survives, the unreadable tail is dropped for good).
  for (std::size_t s = 0; s < seg_paths_.size(); ++s) {
    SegmentReader reader(seg_paths_[s]);
    if (reader.sealed()) continue;
    const std::string tmp = seg_paths_[s] + ".tmp";
    {
      // The rewrite keeps the original segment's run id: compaction repairs
      // the file, it does not re-author the data.
      SegmentWriter rw(tmp, cfg_.fsync_mode, reader.run_id());
      for (std::size_t i = 0; i < reader.records(); ++i) {
        const SegmentIndexEntry& rec = reader.index()[i];
        rw.append(reader.read(i), rec.epoch, rec.wall_start_ns, rec.wall_end_ns);
      }
      rw.seal();
    }
    std::error_code ec;
    fs::rename(tmp, seg_paths_[s], ec);
    if (ec) fail(seg_paths_[s] + ": cannot replace torn segment");
    seg_bytes_[s] = static_cast<std::uint64_t>(fs::file_size(seg_paths_[s]));
  }
  truncated_ = false;

  const std::size_t before = seg_paths_.size();
  if (retain_bytes > 0) apply_retention(retain_bytes);
  const std::size_t deleted = before - seg_paths_.size();
  if (m_compact_ns_ != nullptr) {
    const std::uint64_t now = obs::now_ns();
    const std::uint64_t dur = now >= obs_t0 ? now - obs_t0 : 0;
    m_compact_ns_->record(dur);
    m_trace_->record(obs::TraceEvent::kCompaction,
                     static_cast<std::int64_t>(now), deleted, dur);
    update_gauges();
  }
  return deleted;
}

}  // namespace rhhh::store
