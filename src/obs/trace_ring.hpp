// TraceRing: a bounded, lock-free, multi-producer event ring for control-
// plane milestones (rotation, quiesce, seal, archive, segment roll,
// compaction). Writers claim a monotonically increasing sequence with one
// relaxed fetch_add and fill the slot with all-atomic fields, so recording
// from any thread is wait-free and TSan-clean; the ring wraps, keeping the
// newest `capacity` events. dump() reconstructs the surviving window
// oldest-first, using a per-slot ticket (seqlock-style) to discard slots a
// concurrent writer is overwriting -- readers never block writers.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rhhh::obs {

enum class TraceEvent : std::uint8_t {
  kRotate = 0,     // arg0 = sealed epoch, arg1 = rotation duration ns
  kQuiesce,        // arg0 = epoch, arg1 = wait-for-ack duration ns
  kSnapshot,       // arg0 = epoch, arg1 = merge duration ns
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
    case TraceEvent::kQuiesce: return "quiesce";
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
    // order: relaxed -- the fetch_add only needs a unique sequence number;
    // publication of the payload happens through the ticket release below.
    const std::uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed);
    Slot& s = slots_[static_cast<std::size_t>(seq) & mask_];
    // order: relaxed invalidate -- readers seeing ticket 0 (or any value
    // != this generation's seq+1) discard the slot, so the payload stores
    // below need no ordering among themselves.
    s.ticket.store(0, std::memory_order_relaxed);
    s.ts_ns.store(ts_ns, std::memory_order_relaxed);
    s.event.store(static_cast<std::uint8_t>(ev), std::memory_order_relaxed);
    s.arg0.store(arg0, std::memory_order_relaxed);
    s.arg1.store(arg1, std::memory_order_relaxed);
    // order: release -- publishes the payload stores above; a reader that
    // acquires this ticket value sees this generation's complete payload.
    s.ticket.store(seq + 1, std::memory_order_release);
  }

  /// Reconstruct the surviving window oldest-first. Slots being rewritten
  /// by a concurrent record() (ticket mismatch) are skipped, so the result
  /// is a gap-tolerant but strictly seq-ordered subset of the last
  /// `capacity()` events.
  [[nodiscard]] std::vector<TraceRecord> dump() const {
    // order: acquire -- pairs with the ticket releases: every event
    // numbered below this head has its slot fully published (or has been
    // invalidated by a newer writer, which the ticket check catches).
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t cap = slots_.size();
    const std::uint64_t start = head > cap ? head - cap : 0;
    std::vector<TraceRecord> out;
    out.reserve(static_cast<std::size_t>(head - start));
    for (std::uint64_t seq = start; seq < head; ++seq) {
      const Slot& s = slots_[static_cast<std::size_t>(seq) & mask_];
      // order: acquire -- pairs with record()'s release; a matching ticket
      // guarantees the payload reads below observe this generation.
      if (s.ticket.load(std::memory_order_acquire) != seq + 1) continue;
      TraceRecord r;
      r.seq = seq;
      // order: relaxed -- payload fields, ordered by the ticket acquire
      // above and validated by the ticket re-check below.
      r.ts_ns = s.ts_ns.load(std::memory_order_relaxed);
      r.event =
          static_cast<TraceEvent>(s.event.load(std::memory_order_relaxed));
      r.arg0 = s.arg0.load(std::memory_order_relaxed);
      r.arg1 = s.arg1.load(std::memory_order_relaxed);
      // order: acquire -- seqlock validation: if the ticket still matches,
      // no writer invalidated the slot while the payload was read.
      if (s.ticket.load(std::memory_order_acquire) != seq + 1) continue;
      out.push_back(r);
    }
    return out;
  }

  /// Total events ever recorded (monotone; may exceed capacity()).
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    // order: relaxed -- a statistic; no payload is read through it.
    return head_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  [[nodiscard]] static std::size_t round_up(std::size_t n) noexcept {
    std::size_t p = 8;
    while (p < n) p <<= 1;
    return p;
  }

  struct Slot {
    // ticket == seq+1 marks a fully published generation (0 = never/being
    // written); +1 keeps slot 0's first generation distinguishable.
    alignas(64) std::atomic<std::uint64_t> ticket{0};
    std::atomic<std::int64_t> ts_ns{0};
    std::atomic<std::uint8_t> event{0};
    std::atomic<std::uint64_t> arg0{0};
    std::atomic<std::uint64_t> arg1{0};
  };

  std::vector<Slot> slots_;
  std::size_t mask_;
  alignas(64) std::atomic<std::uint64_t> head_{0};
};

}  // namespace rhhh::obs
