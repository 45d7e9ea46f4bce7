// The forensics workload: the store's read side, with no ingest at all.
//
// Setup appends 64 windows to an archive, each one capture pass through a
// standalone 10-RHHH lattice with its own sampling seed. The measured phase
// is one thread issuing cold queries -- open_read, then merged_last(8) or a
// seeded range() over 8 windows merged by hand -- and then three full
// replay()s. Every answer is checked against a second computation.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/monitor.hpp"
#include "hhh/lattice_hhh.hpp"
#include "net/frame.hpp"
#include "store/archive.hpp"
#include "store/serde.hpp"
#include "util/random.hpp"

namespace bench {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kQueryWindows = 8;
constexpr auto kKind = rhhh::HierarchyKind::kIpv4TwoDimBytes;
constexpr std::size_t kUpdateBatch = 2048;
constexpr std::int64_t kWallBase = 1'700'000'000'000'000'000;  ///< ns
constexpr std::int64_t kWindowNs = 1'000'000'000;

struct SetupTimes {
  std::int64_t parse_ns = 0;
  std::int64_t key_ns = 0;
  std::uint64_t packets = 0;
};

/// Writes `windows` archived windows into `dir`, each one pass over the
/// capture, parsed and keyed here (timed in `t`).
void build_archive(const Capture& cap, const rhhh::Hierarchy& h, std::uint64_t seed,
                   std::size_t windows, const std::string& dir, SetupTimes& t) {
  fs::remove_all(dir);
  std::vector<rhhh::PacketRecord> recs(cap.frames);
  std::size_t n = 0;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < cap.frames; ++i) {
    if (const auto p = rhhh::parse_frame({cap.frame(i), kFrameLen})) recs[n++] = p->record;
  }
  const std::int64_t t1 = now_ns();
  std::vector<rhhh::Key128> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = h.key_of(recs[i]);
  t.parse_ns += t1 - t0;
  t.key_ns += now_ns() - t1;
  t.packets += cap.frames;

  rhhh::ArchiveConfig ac;
  ac.dir = dir;
  ac.fsync_mode = rhhh::FsyncMode::kNone;
  rhhh::store::WindowArchive ar = rhhh::store::WindowArchive::open_write(ac);
  for (std::size_t w = 0; w < windows; ++w) {
    rhhh::LatticeParams lp;
    lp.eps = 1e-3;
    lp.delta = 1e-3;
    lp.seed = seed * 1000 + w;
    const auto lat = rhhh::make_10rhhh(h, lp);
    for (std::size_t i = 0; i < keys.size(); i += kUpdateBatch) {
      lat->update_batch(keys.data() + i, std::min(kUpdateBatch, keys.size() - i));
    }
    rhhh::store::WindowMeta m;
    m.epoch = w + 1;
    m.wall_start_ns = kWallBase + static_cast<std::int64_t>(w) * kWindowNs;
    m.wall_end_ns = m.wall_start_ns + kWindowNs - 1;
    m.duration_ns = kWindowNs;
    m.stream_length = lat->stream_length();
    m.updates = lat->updates_performed();
    ar.append(m, kKind, *lat);
  }
  ar.close();
}

/// Folds windows (given oldest first) the way the archive documents its
/// merged queries: the oldest window absorbs the newer ones in order.
std::unique_ptr<rhhh::RhhhSpaceSaving> merge_oldest_first(
    std::vector<rhhh::store::ArchivedWindow>& ws) {
  std::unique_ptr<rhhh::RhhhSpaceSaving> merged;
  for (rhhh::store::ArchivedWindow& w : ws) {
    if (merged == nullptr) {
      merged = std::move(w.window);
    } else {
      merged->merge(*w.window);
    }
  }
  return merged;
}

/// CRC-32 of the lattice's serialized image: every counter of every node,
/// in order, so equal CRCs mean (up to CRC collisions) byte-identical state.
std::uint32_t image_crc(const rhhh::RhhhSpaceSaving& l) {
  return rhhh::store::crc32(rhhh::store::encode_window(rhhh::store::WindowMeta{}, kKind, l));
}

/// First wall-clock ns of window j (windows are 1 s apart).
std::int64_t range_from(std::int64_t j) { return kWallBase + j * kWindowNs; }
/// Last wall-clock ns of the 8-window range starting at window j.
std::int64_t range_to(std::int64_t j) {
  return range_from(j) + static_cast<std::int64_t>(kQueryWindows) * kWindowNs - 1;
}

/// Cold queries and their checks. Each answer's image is compared with a
/// second computation of the same query -- a manual oldest-first merge of
/// last(8), or merged_range() for a range() -- made once per distinct query
/// after the timed queries, so that the run's seconds go to queries.
class Queries {
 public:
  Queries(std::string dir, std::size_t windows, std::uint64_t seed)
      : dir_(std::move(dir)), windows_(windows), rng_(rhhh::mix64(seed)) {}

  /// One query, timed into `ms`. Returns false when it threw or a range()
  /// missed windows; check() judges the answer.
  bool run(std::vector<double>& ms, Tracer* tr) {
    try {
      const Tracer::Scope q(tr, "forensics.query");
      const std::int64_t t0 = now_ns();
      std::optional<rhhh::store::WindowArchive> ar;
      {
        const Tracer::Scope sp(tr, "store.open_read");
        ar.emplace(rhhh::store::WindowArchive::open_read(dir_));
      }
      std::unique_ptr<rhhh::RhhhSpaceSaving> got;
      std::int64_t key = -1;  // -1: merged_last(8); else the range's first window
      if (rng_.bounded(2) == 0) {
        const Tracer::Scope sp(tr, "store.merged_last");
        got = ar->merged_last(kQueryWindows);
      } else {
        key = rng_.bounded(static_cast<std::uint32_t>(windows_ - kQueryWindows + 1));
        const Tracer::Scope sp(tr, "store.range");
        std::vector<rhhh::store::ArchivedWindow> ws = ar->range(range_from(key), range_to(key));
        if (ws.size() != kQueryWindows) return false;
        got = merge_oldest_first(ws);
      }
      ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      if (got == nullptr) return false;
      answers_.emplace_back(key, image_crc(*got));
      return true;
    } catch (const std::exception&) {
      return false;
    }
  }

  /// Answers that differ from their second computation.
  [[nodiscard]] std::uint64_t wrong() const {
    const rhhh::store::WindowArchive ar = rhhh::store::WindowArchive::open_read(dir_);
    std::map<std::int64_t, std::uint32_t> want;  // query -> expected image CRC
    std::uint64_t n = 0;
    for (const auto& [key, crc] : answers_) {
      auto it = want.find(key);
      if (it == want.end()) it = want.emplace(key, image_crc(*recompute(ar, key))).first;
      n += crc == it->second ? 0 : 1;
    }
    return n;
  }

 private:
  static std::unique_ptr<rhhh::RhhhSpaceSaving> recompute(const rhhh::store::WindowArchive& ar,
                                                          std::int64_t key) {
    if (key >= 0) return ar.merged_range(range_from(key), range_to(key));
    std::vector<rhhh::store::ArchivedWindow> ws = ar.last(kQueryWindows);
    std::reverse(ws.begin(), ws.end());
    return merge_oldest_first(ws);
  }

  std::string dir_;
  std::size_t windows_;
  rhhh::Xoroshiro128 rng_;
  /// (query, image CRC) of every answer; query -1 is merged_last(8), else
  /// the first window of a range().
  std::vector<std::pair<std::int64_t, std::uint32_t>> answers_;
};

}  // namespace

void run_forensics(const Options& o, Result& r, Tracer* tr) {
  const Scale sc = Scale::of(o);
  const rhhh::Hierarchy h = rhhh::make_hierarchy(kKind);
  const std::string dir = o.work_dir + "/forensics";
  const std::size_t windows = sc.forensics_windows;

  std::vector<double> setup_s;
  std::optional<Capture> cap;
  SetupTimes st;
  for (int i = 0; i < kSetupReps; ++i) {
    run_on_cpu(static_cast<std::size_t>(i));
    const Tracer::Scope sp(tr, "setup.archive");
    const std::int64_t t0 = now_ns();
    cap.reset();
    cap = make_capture(o.seed, sc.capture, false, o.work_dir);
    st = SetupTimes{};
    build_archive(*cap, h, o.seed, windows, dir, st);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  r.set("setup_s", median(setup_s), "s");

  // Cold queries for the run's length (the first half only when traced:
  // the second half repeats them traced to price the tracing). Each
  // segment of kSegment queries runs on the next CPU.
  Queries queries(dir, windows, o.seed);
  std::vector<double> plain;
  std::vector<double> traced;
  const auto query_phase = [&](double secs, std::vector<double>& ms, Tracer* t) {
    const std::int64_t t0 = now_ns();
    for (std::size_t q = 0; q < sc.queries_min / (tr != nullptr ? 2 : 1) ||
                            static_cast<double>(now_ns() - t0) / 1e9 < secs;
         ++q) {
      if (q % kSegment == 0) run_on_cpu(q / kSegment);
      ++r.attempted;
      if (!queries.run(ms, t)) ++r.failed;
    }
  };
  query_phase(tr != nullptr ? o.seconds / 2 : o.seconds, plain, nullptr);
  if (tr != nullptr) query_phase(o.seconds / 2, traced, tr);
  r.failed += queries.wrong();

  // Three full replays, each on another CPU, each window's decode timed on
  // its own.
  std::vector<double> window_s;
  for (int i = 0; i < 3; ++i) {
    run_on_cpu(static_cast<std::size_t>(i));
    ++r.attempted;
    const Tracer::Scope sp(tr, "store.replay");
    std::int64_t t = now_ns();
    const rhhh::store::WindowArchive ar = rhhh::store::WindowArchive::open_read(dir);
    rhhh::store::WindowArchive::Replay rp = ar.replay();
    rhhh::store::ArchivedWindow w;
    std::uint64_t n = 0;
    std::size_t count = 0;
    while (rp.next(w)) {
      const std::int64_t now = now_ns();
      window_s.push_back(static_cast<double>(now - t) / 1e9);
      t = now;
      n += w.meta.stream_length;
      ++count;
    }
    const bool ok = count == windows && n == windows * cap->frames;
    r.check(ok, "replay did not return every archived window");
    r.failed += ok ? 0 : 1;
  }
  run_on(Cpus::kAllButGenerator);

  r.check(r.failed == 0, "a query threw or disagreed with its check");
  const rhhh::store::WindowArchive ar = rhhh::store::WindowArchive::open_read(dir);
  r.check(ar.windows() == windows, "cold open_read misses archived windows");

  r.set("throughput_mpps", static_cast<double>(cap->frames) / quiet_median(window_s, Better::kLower) / 1e6,
        "Mpps");
  r.set("latency_ms_p50", quiet_median(plain, Better::kLower), "ms");
  r.layer("latency_ms_p90", quantile(plain, 0.9), "ms");
  // Recall of each disjoint group of 8 windows, merged: 8 passes over one
  // capture share that pass's exact HHHs.
  std::vector<std::unique_ptr<rhhh::RhhhSpaceSaving>> groups;
  std::vector<const rhhh::HhhAlgorithm*> scored;
  for (std::size_t g = 0; g + kQueryWindows <= windows; g += kQueryWindows) {
    const auto j = static_cast<std::int64_t>(g);
    groups.push_back(ar.merged_range(range_from(j), range_to(j)));
    scored.push_back(groups.back().get());
  }
  r.set("recall", hhh_recall(*cap, scored, sc.forensics_recall_theta), "ratio");

  if (tr != nullptr) {
    const double pk = static_cast<double>(std::max<std::uint64_t>(st.packets, 1));
    r.layer("net.pcap_read_ns_per_pkt", cap->pcap_read_ns_per_pkt, "ns");
    r.layer("net.parse_ns_per_pkt", static_cast<double>(st.parse_ns) / pk, "ns");
    r.layer("hierarchy.key_of_ns_per_pkt", static_cast<double>(st.key_ns) / pk, "ns");
    std::uint64_t updates = 0;
    std::uint64_t total = 0;
    for (const rhhh::store::WindowMeta& m : ar.list()) {
      updates += m.updates;
      total += m.stream_length;
    }
    r.layer("hhh.survivor_ratio",
            total > 0 ? static_cast<double>(updates) / static_cast<double>(total) : 0.0, "ratio");
    r.layer("store.bytes_per_window",
            static_cast<double>(ar.total_bytes()) / static_cast<double>(windows), "bytes");
    const double base = quiet_median(plain, Better::kLower);
    r.layer("engine.tracing_overhead_pct",
            base > 0 ? (quiet_median(traced, Better::kLower) / base - 1.0) * 100.0 : 0.0, "%");
    LedgerPoint lp;
    lp.ten_rhhh = true;
    lp.eps = 1e-3;
    lp.window = cap->frames;
    lp.history = 1;
    run_ledger(*cap, lp, o.work_dir + "/ledger", r, tr);
  }
  fs::remove_all(dir);
}

}  // namespace bench
