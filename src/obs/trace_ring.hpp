// TraceRing: a bounded, multi-producer event ring for control-plane
// milestones (rotation, snapshot copy, seal, archive, segment roll, compaction,
// scrape, stall). Every writer is control-plane -- the engine, the archive,
// the watchdog and the exporter, a few events per window -- so one mutex
// guards a ring of plain TraceRecord slots: record() stamps the next
// sequence number and overwrites the oldest slot, and dump() copies the
// newest `capacity` events oldest-first. The mutex is a leaf: no code takes
// another lock while holding it (the engine records under snap_mu_ and
// arch_mu_, never the reverse).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace rhhh::obs {

enum class TraceEvent : std::uint8_t {
  kRotate = 0,     // arg0 = sealed epoch, arg1 = rotation duration ns
  kCopy,           // arg0 = query, arg1 = slowest shard's copy at its mark ns
  kSnapshot,       // arg0 = query, arg1 = merge duration ns
  kSeal,           // arg0 = sealed epoch, arg1 = window live duration ns
  kArchive,        // arg0 = archived epoch, arg1 = append duration ns
  kArchiveDrop,    // arg0 = dropped epoch (bounded queue full)
  kArchiveError,   // arg0 = failed epoch
  kSegmentRoll,    // arg0 = new segment index, arg1 = closed segment bytes
  kCompaction,     // arg0 = segments deleted, arg1 = duration ns
  kScrape,         // arg0 = exporter scrape count
  kStall,          // arg0 = consecutive stalled watchdog periods, arg1 = ring backlog
};

[[nodiscard]] constexpr const char* to_string(TraceEvent e) noexcept {
  switch (e) {
    case TraceEvent::kRotate: return "rotate";
    case TraceEvent::kCopy: return "copy";
    case TraceEvent::kSnapshot: return "snapshot";
    case TraceEvent::kSeal: return "seal";
    case TraceEvent::kArchive: return "archive";
    case TraceEvent::kArchiveDrop: return "archive_drop";
    case TraceEvent::kArchiveError: return "archive_error";
    case TraceEvent::kSegmentRoll: return "segment_roll";
    case TraceEvent::kCompaction: return "compaction";
    case TraceEvent::kScrape: return "scrape";
    case TraceEvent::kStall: return "stall";
  }
  return "unknown";
}

struct TraceRecord {
  std::uint64_t seq;    // global record number (0-based, never reused)
  std::int64_t ts_ns;   // steady_clock nanoseconds at record() time
  TraceEvent event;
  std::uint64_t arg0;
  std::uint64_t arg1;
};

class TraceRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 8).
  explicit TraceRing(std::size_t capacity = 1024)
      : slots_(round_up(capacity)), mask_(slots_.size() - 1) {}

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Process-wide ring shared by engine and store instrumentation.
  [[nodiscard]] static TraceRing& global() {
    static TraceRing g(1024);
    return g;
  }

  void record(TraceEvent ev, std::int64_t ts_ns, std::uint64_t arg0 = 0,
              std::uint64_t arg1 = 0) noexcept {
    const std::lock_guard<std::mutex> lk(mu_);
    slots_[static_cast<std::size_t>(head_) & mask_] =
        TraceRecord{head_, ts_ns, ev, arg0, arg1};
    ++head_;
  }

  /// The surviving window oldest-first: the last min(recorded(),
  /// capacity()) events, strictly seq-ordered and gap-free.
  [[nodiscard]] std::vector<TraceRecord> dump() const {
    const std::lock_guard<std::mutex> lk(mu_);
    const std::uint64_t start = head_ > slots_.size() ? head_ - slots_.size() : 0;
    std::vector<TraceRecord> out;
    out.reserve(static_cast<std::size_t>(head_ - start));
    for (std::uint64_t seq = start; seq < head_; ++seq) {
      out.push_back(slots_[static_cast<std::size_t>(seq) & mask_]);
    }
    return out;
  }

  /// Total events ever recorded (monotone; may exceed capacity()).
  [[nodiscard]] std::uint64_t recorded() const {
    const std::lock_guard<std::mutex> lk(mu_);
    return head_;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  [[nodiscard]] static std::size_t round_up(std::size_t n) noexcept {
    std::size_t p = 8;
    while (p < n) p <<= 1;
    return p;
  }

  mutable std::mutex mu_;
  std::vector<TraceRecord> slots_;  ///< under mu_
  std::size_t mask_;
  std::uint64_t head_ = 0;  ///< next sequence number (under mu_)
};

}  // namespace rhhh::obs
