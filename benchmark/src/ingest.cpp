// The ingest workloads: wire10 / wire1 (closed loop, throughput) and detect
// (open loop at 64-byte line rate, control-plane latency).
//
// A generator thread plays the rx side: it walks the frame arena in
// 256-frame bursts and, per burst, runs parse_frame, then key_of, then
// Producer::ingest, stamping each burst's emission time. A watcher thread
// times when each window is sealed and when it is archived.
// Window boundaries are recovered afterwards from the windows' own lengths
// (the running sum of N), so every latency starts at the emission of the
// window's last packet.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/monitor.hpp"
#include "core/window_ring.hpp"
#include "engine/engine.hpp"
#include "net/frame.hpp"
#include "store/archive.hpp"

namespace bench {
namespace {

namespace fs = std::filesystem;

/// The engine operating point of one ingest workload.
struct Point {
  bool ten_rhhh = true;
  double eps = 1e-3;
  rhhh::OverflowPolicy overflow = rhhh::OverflowPolicy::kBlock;
  std::size_t ring = std::size_t{1} << 16;
  std::uint64_t epoch = 0;  ///< epoch_packets
  std::size_t history = 1;
};

rhhh::EngineConfig engine_config(const Point& p, std::uint64_t seed, const std::string& dir) {
  rhhh::EngineConfig cfg;
  cfg.monitor.hierarchy = rhhh::HierarchyKind::kIpv4TwoDimBytes;
  cfg.monitor.algorithm = p.ten_rhhh ? rhhh::AlgorithmKind::kTenRhhh : rhhh::AlgorithmKind::kRhhh;
  cfg.monitor.eps = p.eps;
  cfg.monitor.delta = 1e-3;
  cfg.monitor.seed = seed;
  cfg.workers = kWorkers;
  cfg.producers = 1;
  cfg.ring_capacity = p.ring;
  cfg.batch = kBurst;
  cfg.policy = rhhh::ShardPolicy::kKeyHash;
  cfg.overflow = p.overflow;
  cfg.epoch_packets = p.epoch;
  cfg.history_depth = p.history;
  cfg.archive.dir = dir;
  cfg.archive.fsync_mode = rhhh::FsyncMode::kNone;
  return cfg;
}

/// Starts the engine with each worker pinned to a CPU of its own (see
/// place_new_threads): HhhEngine::start() spawns its workers first.
void start_engine(rhhh::HhhEngine& eng, Tracer* tr) {
  const Tracer::Scope sp(tr, "engine.start");
  const std::vector<int> before = thread_ids();
  eng.start();
  place_new_threads(before, eng.workers());
}

/// Upper bound on a closed-loop generator's rate, which sizes its stamp log
/// (only the stamps written are ever paged in).
constexpr double kMaxClosedLoopPps = 250e6;
/// A paced generator this far behind its schedule was stalled by the host.
constexpr std::int64_t kStallNs = 1'000'000;

/// The rx side: emits bursts for `seconds`. Closed loop (`burst_ns` 0):
/// back to back, as fast as the engine accepts them. Open loop: one burst
/// every `burst_ns` on a fixed schedule; after a stall of the generator
/// itself (kStallNs late) the schedule resumes from the present instead of
/// flooding the engine with the bursts it missed. Runs on the generator's
/// CPU, rotated by `shift` (see run_on).
class Generator {
 public:
  Generator(const Capture& cap, const rhhh::Hierarchy& h, rhhh::HhhEngine::Producer& prod,
            double seconds, double burst_ns, std::size_t shift, Tracer* tr)
      : cap_(cap), h_(h), prod_(prod), tr_(tr), seconds_(seconds), burst_ns_(burst_ns), shift_(shift),
        max_bursts_(static_cast<std::size_t>(
                        seconds * (burst_ns > 0.0 ? 1e9 / burst_ns
                                                  : kMaxClosedLoopPps / static_cast<double>(kBurst))) +
                    2),
        stamps_(new std::int64_t[max_bursts_]) {}

  void run() {
    run_on(Cpus::kGenerator, shift_);
    std::array<rhhh::PacketRecord, kBurst> recs{};
    std::array<rhhh::Key128, kBurst> keys{};
    std::size_t pos = 0;
    const bool paced = burst_ns_ > 0.0;
    if (paced) late_ns_.reserve(max_bursts_);
    start_ns_ = now_ns();
    const std::int64_t deadline = start_ns_ + static_cast<std::int64_t>(seconds_ * 1e9);
    std::int64_t origin = start_ns_;  // the paced schedule: burst k due at origin + k * burst_ns_
    std::uint64_t k = 0;
    for (std::uint64_t j = 0; j < max_bursts_; ++j) {
      std::int64_t t = now_ns();
      if (paced) {
        const std::int64_t due = origin + static_cast<std::int64_t>(static_cast<double>(k++) * burst_ns_);
        if (due >= deadline) break;
        while (t < due) t = now_ns();
        late_ns_.push_back(static_cast<double>(t - due));
        if (t - due > kStallNs) {
          ++stalls_;
          origin = t;
          k = 1;
        }
      } else if (t >= deadline) {
        break;
      }
      stamps_[j] = t;
      const std::uint8_t* base = cap_.frame(pos);
      std::size_t n = 0;
      for (std::size_t i = 0; i < kBurst; ++i) {
        const auto p = rhhh::parse_frame({base + i * kFrameLen, kFrameLen});
        if (p) {
          recs[n++] = p->record;
        } else {
          ++parse_errors_;
        }
      }
      const std::int64_t t_parsed = tr_ != nullptr ? now_ns() : 0;
      for (std::size_t i = 0; i < n; ++i) keys[i] = h_.key_of(recs[i]);
      const std::int64_t t_keyed = tr_ != nullptr ? now_ns() : 0;
      for (std::size_t i = 0; i < n; ++i) prod_.ingest(keys[i]);
      offered_ += n;
      pos += kBurst;
      if (pos == cap_.frames) pos = 0;
      if (tr_ != nullptr) {
        const std::int64_t t_done = now_ns();
        parse_ns += t_parsed - t;
        key_ns += t_keyed - t_parsed;
        ingest_ns += t_done - t_keyed;
        if (j % 64 == 0) {
          const std::uint64_t burst = tr_->reserve_id();
          tr_->record("net.parse_frame", t, t_parsed, burst);
          tr_->record("hierarchy.key_of", t_parsed, t_keyed, burst);
          tr_->record("engine.ingest", t_keyed, t_done, burst);
          tr_->record_with_id(burst, "rx.burst", t, t_done, 0);
        }
      }
      // order: release -- publishes stamps_[j] to readers that acquire this.
      bursts_.store(j + 1, std::memory_order_release);
    }
    end_ns_ = now_ns();
    {
      const Tracer::Scope s(tr_, "engine.flush");
      prod_.flush();
    }
    // order: release -- the totals above are read after this is observed.
    done_.store(true, std::memory_order_release);
  }

  [[nodiscard]] bool done() const noexcept { return done_.load(std::memory_order_acquire); }
  /// Emission time of packet index `i` (waits until its burst is out).
  [[nodiscard]] std::int64_t emitted_at(std::uint64_t i) const {
    const std::uint64_t b = i / kBurst;
    for (;;) {
      // done_ is stored after the last bursts_ store, so once it reads true
      // the load below sees every burst there will be.
      const bool finished = done();
      if (bursts_.load(std::memory_order_acquire) > b) return stamps_[b];
      if (finished) throw std::runtime_error("window ends past the emitted stream");
      std::this_thread::yield();
    }
  }
  [[nodiscard]] std::int64_t start_ns() const noexcept { return start_ns_; }
  [[nodiscard]] std::int64_t end_ns() const noexcept { return end_ns_; }
  [[nodiscard]] std::uint64_t offered() const noexcept { return offered_; }
  [[nodiscard]] std::uint64_t parse_errors() const noexcept { return parse_errors_; }
  [[nodiscard]] const std::vector<double>& late_ns() const noexcept { return late_ns_; }
  [[nodiscard]] std::uint64_t stalls() const noexcept { return stalls_; }
  /// Traced runs only: time spent in each stage, summed over every burst.
  std::int64_t parse_ns = 0;
  std::int64_t key_ns = 0;
  std::int64_t ingest_ns = 0;

 private:
  const Capture& cap_;
  const rhhh::Hierarchy& h_;
  rhhh::HhhEngine::Producer& prod_;
  Tracer* tr_;
  double seconds_;
  double burst_ns_;
  std::size_t shift_;
  std::size_t max_bursts_;
  std::unique_ptr<std::int64_t[]> stamps_;  ///< [burst] emission time, left uninitialized
  std::atomic<std::uint64_t> bursts_{0};
  std::atomic<bool> done_{false};
  std::vector<double> late_ns_;
  std::int64_t start_ns_ = 0;
  std::int64_t end_ns_ = 0;
  std::uint64_t offered_ = 0;
  std::uint64_t parse_errors_ = 0;
  std::uint64_t stalls_ = 0;
};

/// Stamps the instant each window is sealed (window_epochs()) and the
/// instant it is archived (stats().archived_windows), polling every 100 us.
class WindowWatcher {
 public:
  explicit WindowWatcher(const rhhh::HhhEngine& eng) : eng_(eng), thread_([this] { loop(); }) {}
  ~WindowWatcher() { stop(); }
  WindowWatcher(const WindowWatcher&) = delete;
  WindowWatcher& operator=(const WindowWatcher&) = delete;

  void stop() {
    if (!thread_.joinable()) return;
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
    poll();
  }
  /// sealed_at()[k] / archived_at()[k]: when window k (0-based) got there.
  [[nodiscard]] const std::vector<std::int64_t>& sealed_at() const { return sealed_; }
  [[nodiscard]] const std::vector<std::int64_t>& archived_at() const { return archived_; }

 private:
  void poll() {
    const std::uint64_t sealed = eng_.window_epochs();
    const std::uint64_t archived = eng_.stats().archived_windows;
    const std::int64_t t = now_ns();
    while (sealed_.size() < sealed) sealed_.push_back(t);
    while (archived_.size() < archived) archived_.push_back(t);
  }
  void loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
      poll();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  const rhhh::HhhEngine& eng_;
  std::vector<std::int64_t> sealed_;
  std::vector<std::int64_t> archived_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after the members it uses
};

/// Per-layer accumulators over every engine run of one mode.
struct EngineTally {
  std::uint64_t offered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t backpressure = 0;
  std::vector<std::uint64_t> per_worker;
  std::uint64_t budget_rotations = 0;
  std::uint64_t drift_ns = 0;
  std::uint64_t late_rotations = 0;
  std::uint64_t trend_cache_hits = 0;
  std::uint64_t archive_queue_drops = 0;
  std::uint64_t archive_errors = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t updates = 0;
  std::uint64_t window_n = 0;
  std::uint64_t windows = 0;
  std::uint64_t store_bytes = 0;
  std::int64_t parse_ns = 0;
  std::int64_t key_ns = 0;
  std::int64_t ingest_ns = 0;
  std::uint64_t timed_packets = 0;
  std::vector<double> stop_ms;
  std::vector<double> archive_lag_ms;
  std::vector<double> trend_ms;

  void add(const rhhh::EngineStats& s, const Generator& g) {
    offered += s.offered;
    dropped += s.dropped;
    backpressure += s.backpressure_waits;
    per_worker.resize(s.per_worker_consumed.size());
    for (std::size_t w = 0; w < per_worker.size(); ++w) per_worker[w] += s.per_worker_consumed[w];
    budget_rotations += s.budget_rotations;
    drift_ns += s.rotation_drift_ns_total;
    late_rotations += s.late_rotations;
    trend_cache_hits += s.trend_cache_hits;
    archive_queue_drops += s.archive_queue_drops;
    archive_errors += s.archive_errors;
    parse_errors += g.parse_errors();
    parse_ns += g.parse_ns;
    key_ns += g.key_ns;
    ingest_ns += g.ingest_ns;
    timed_packets += g.offered();
  }
};

/// Checks every run shares, after stop(): conservation, the archive against
/// the engine, and a cold read of the store. Returns the windows' lengths
/// in append order; counts failed operations into `r`.
std::vector<std::uint64_t> check_run(rhhh::HhhEngine& eng, const Generator& g,
                                     const std::string& dir, Result& r, EngineTally& tally,
                                     Tracer* tr) {
  const rhhh::EngineStats s = eng.stats();
  r.check(s.offered == g.offered(), "engine offered != packets ingested");
  r.check(s.offered == s.consumed + s.dropped, "offered != consumed + dropped");
  for (std::size_t i = 0; i < s.per_ring_pushed.size(); ++i) {
    r.check(s.per_ring_pushed[i] == s.per_ring_popped[i],
            "ring " + std::to_string(i) + ": pushed != popped");
  }
  r.check(s.archived_windows == s.window_epochs, "archived_windows != window_epochs");
  r.check(s.archive_errors == 0, "archive errors");
  r.attempted += g.offered() + g.parse_errors() + s.window_epochs;
  r.failed += s.dropped + g.parse_errors() + (s.window_epochs - std::min(s.window_epochs, s.archived_windows));
  tally.add(s, g);

  std::uint64_t live = 0;
  {
    const Tracer::Scope sp(tr, "engine.trend_snapshot");
    const std::int64_t t0 = now_ns();
    live = eng.trend_snapshot().current_length();
    tally.trend_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  std::vector<std::uint64_t> lengths;
  const Tracer::Scope sp(tr, "store.open_read");
  const rhhh::store::WindowArchive ar = rhhh::store::WindowArchive::open_read(dir);
  r.check(ar.windows() == s.archived_windows, "cold open_read misses archived windows");
  std::uint64_t sum = 0;
  for (const rhhh::store::WindowMeta& m : ar.list()) {
    lengths.push_back(m.stream_length);
    sum += m.stream_length;
    tally.updates += m.updates;
    tally.window_n += m.stream_length;
    r.check(m.stream_length >= eng.config().epoch_packets, "sealed window shorter than epoch");
  }
  r.check(sum + live == s.offered, "archived N + live window != offered");
  tally.windows += ar.windows();
  tally.store_bytes += ar.total_bytes();
  return lengths;
}

/// Latency from the emission of each window's last packet to `ready[k]`.
void window_latencies(const Generator& g, const std::vector<std::uint64_t>& lengths,
                      const std::vector<std::int64_t>& ready, std::vector<double>& out) {
  std::uint64_t end = 0;
  for (std::size_t k = 0; k < lengths.size() && k < ready.size(); ++k) {
    end += lengths[k];
    out.push_back(static_cast<double>(ready[k] - g.emitted_at(end - 1)) / 1e6);
  }
}

void fill_engine_layers(const EngineTally& t, Result& r) {
  const double pk = static_cast<double>(std::max<std::uint64_t>(t.timed_packets, 1));
  r.layer("net.parse_ns_per_pkt", static_cast<double>(t.parse_ns) / pk, "ns");
  r.layer("hierarchy.key_of_ns_per_pkt", static_cast<double>(t.key_ns) / pk, "ns");
  r.layer("engine.ingest_ns_per_pkt", static_cast<double>(t.ingest_ns) / pk, "ns");
  r.layer("net.parse_errors", static_cast<double>(t.parse_errors), "count");
  const double offered = static_cast<double>(std::max<std::uint64_t>(t.offered, 1));
  r.layer("engine.backpressure_per_mpkt", static_cast<double>(t.backpressure) * 1e6 / offered, "count");
  r.layer("engine.loss_ppm", static_cast<double>(t.dropped) * 1e6 / offered, "ppm");
  double mx = 0.0;
  double sum = 0.0;
  for (const std::uint64_t c : t.per_worker) {
    mx = std::max(mx, static_cast<double>(c));
    sum += static_cast<double>(c);
  }
  r.layer("engine.worker_skew",
          sum > 0 ? mx / (sum / static_cast<double>(t.per_worker.size())) : 0.0, "ratio");
  r.layer("engine.rotation_drift_us",
          t.budget_rotations > 0
              ? static_cast<double>(t.drift_ns) / static_cast<double>(t.budget_rotations) / 1e3
              : 0.0,
          "us");
  r.layer("engine.late_rotations", static_cast<double>(t.late_rotations), "count");
  r.layer("engine.trend_snapshot_ms_p50", quantile(t.trend_ms, 0.5), "ms");
  r.layer("engine.trend_snapshot_ms_p90", quantile(t.trend_ms, 0.9), "ms");
  r.layer("engine.trend_cache_hits", static_cast<double>(t.trend_cache_hits), "count");
  r.layer("engine.stop_ms", median(t.stop_ms), "ms");
  r.layer("hhh.survivor_ratio",
          t.window_n > 0 ? static_cast<double>(t.updates) / static_cast<double>(t.window_n) : 0.0,
          "ratio");
  r.layer("store.bytes_per_window",
          t.windows > 0 ? static_cast<double>(t.store_bytes) / static_cast<double>(t.windows) : 0.0,
          "bytes");
  r.layer("store.archive_lag_ms_p50", quantile(t.archive_lag_ms, 0.5), "ms");
  r.layer("store.archive_lag_ms_p90", quantile(t.archive_lag_ms, 0.9), "ms");
  r.layer("store.archive_queue_drops", static_cast<double>(t.archive_queue_drops), "count");
  r.layer("store.archive_errors", static_cast<double>(t.archive_errors), "count");
}

/// Builds the capture kSetupReps times, each on another CPU; setup_s is the
/// median.
Capture timed_setup(const Options& o, std::size_t frames, bool flood, Result& r, Tracer* tr) {
  std::vector<double> secs;
  std::optional<Capture> cap;
  for (int i = 0; i < kSetupReps; ++i) {
    run_on_cpu(static_cast<std::size_t>(i));
    const Tracer::Scope sp(tr, "setup.capture");
    const std::int64_t t0 = now_ns();
    cap.reset();
    cap = make_capture(o.seed, frames, flood, o.work_dir);
    secs.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  run_on(Cpus::kAllButGenerator);
  r.set("setup_s", median(secs), "s");
  r.layer("net.pcap_read_ns_per_pkt", cap->pcap_read_ns_per_pkt, "ns");
  return std::move(*cap);
}

// -- wire -------------------------------------------------------------------

/// Windows whose recall a wire run scores: the last ones it archives.
constexpr std::size_t kScoredWindows = 8;

struct WirePhase {
  std::vector<double> mpps;     ///< per window after the first, in order
  std::vector<double> seal_ms;  ///< per window: last packet emitted -> sealed
};

/// One engine fed back to back for `seconds`, its threads' CPUs rotated by
/// `phase`. A window's throughput is its N over the time between the
/// emission of its last packet and of the previous window's last; the first
/// window, which pays for warming the engine up, is left out.
WirePhase wire_phase(const Options& o, const Capture& cap, const Point& pt, double seconds,
                     int phase, Result& r, EngineTally& tally, Tracer* tr, double* recall) {
  const std::string dir = o.work_dir + "/wire-" + std::to_string(phase);
  fs::remove_all(dir);
  const auto eng = rhhh::make_engine(engine_config(pt, o.seed * 1000 + static_cast<std::uint64_t>(phase), dir));
  const auto shift = static_cast<std::size_t>(phase);
  Generator g(cap, eng->hierarchy(), eng->producer(0), seconds, 0.0, shift, tr);
  run_on(Cpus::kAllButGenerator, shift);
  start_engine(*eng, tr);
  WindowWatcher watch(*eng);
  std::thread gen([&g] { g.run(); });
  gen.join();
  {
    const Tracer::Scope sp(tr, "engine.stop");
    const std::int64_t t0 = now_ns();
    eng->stop();
    tally.stop_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  watch.stop();
  run_on(Cpus::kAllButGenerator);

  WirePhase out;
  const std::vector<std::uint64_t> lengths = check_run(*eng, g, dir, r, tally, tr);
  window_latencies(g, lengths, watch.sealed_at(), out.seal_ms);
  window_latencies(g, lengths, watch.archived_at(), tally.archive_lag_ms);
  std::uint64_t end = lengths.empty() ? 0 : lengths[0];
  for (std::size_t k = 1; k < lengths.size(); ++k) {
    const std::int64_t t0 = g.emitted_at(end - 1);
    end += lengths[k];
    out.mpps.push_back(static_cast<double>(lengths[k]) /
                       static_cast<double>(g.emitted_at(end - 1) - t0) * 1e3);
  }
  r.check(!out.mpps.empty(), "fewer than two windows sealed");
  if (recall != nullptr) {
    const rhhh::store::WindowArchive ar = rhhh::store::WindowArchive::open_read(dir);
    std::vector<rhhh::store::ArchivedWindow> ws = ar.last(std::min(ar.windows(), kScoredWindows));
    std::vector<const rhhh::HhhAlgorithm*> scored;
    for (const rhhh::store::ArchivedWindow& w : ws) scored.push_back(w.window.get());
    r.check(!scored.empty(), "no archived window to score");
    *recall = hhh_recall(cap, scored, Scale::of(o).wire_recall_theta);
  }
  fs::remove_all(dir);
  return out;
}

/// kPlacements phases of `seconds / kPlacements`, numbered from `first`,
/// pooled; the last one scores `recall`.
WirePhase wire_phases(const Options& o, const Capture& cap, const Point& pt, double seconds,
                      int first, Result& r, EngineTally& tally, Tracer* tr, double* recall) {
  WirePhase all;
  for (int i = 0; i < kPlacements; ++i) {
    const WirePhase p = wire_phase(o, cap, pt, seconds / kPlacements, first + i, r, tally, tr,
                                   i + 1 == kPlacements ? recall : nullptr);
    all.mpps.insert(all.mpps.end(), p.mpps.begin(), p.mpps.end());
    all.seal_ms.insert(all.seal_ms.end(), p.seal_ms.begin(), p.seal_ms.end());
  }
  return all;
}

}  // namespace

void run_wire(const Options& o, bool ten_rhhh, Result& r, Tracer* tr) {
  const Scale sc = Scale::of(o);
  const Capture cap = timed_setup(o, sc.capture, false, r, tr);
  Point pt;
  pt.ten_rhhh = ten_rhhh;
  pt.eps = 1e-3;
  pt.overflow = rhhh::OverflowPolicy::kBlock;
  pt.ring = std::size_t{1} << 16;
  // One full-scale capture pass per window, at smoke scale too: archiving a
  // window costs the same whatever its length, and shorter windows would
  // outrun the archiver.
  pt.epoch = Scale{}.capture;
  pt.history = 1;

  // A traced run spends its first half untraced, to measure what the
  // tracing costs, and reports per-layer numbers from the traced half.
  const double seconds = tr != nullptr ? o.seconds / 2 : o.seconds;
  EngineTally plain;
  double recall = 0.0;
  const WirePhase p = wire_phases(o, cap, pt, seconds, 0, r, plain, nullptr, &recall);
  r.set("throughput_mpps", quiet_median(p.mpps, Better::kHigher), "Mpps");
  r.set("latency_ms_p50", quiet_median(p.seal_ms, Better::kLower), "ms");
  r.layer("latency_ms_p90", quantile(p.seal_ms, 0.9), "ms");
  r.set("recall", recall, "ratio");
  if (tr != nullptr) {
    EngineTally traced;
    const WirePhase q = wire_phases(o, cap, pt, seconds, kPlacements, r, traced, tr, nullptr);
    fill_engine_layers(traced, r);
    const double m_traced = quiet_median(q.mpps, Better::kHigher);
    r.layer("engine.tracing_overhead_pct",
            m_traced > 0 ? (quiet_median(p.mpps, Better::kHigher) / m_traced - 1.0) * 100.0 : 0.0,
            "%");
    LedgerPoint lp;
    lp.ten_rhhh = ten_rhhh;
    lp.eps = pt.eps;
    lp.window = pt.epoch;
    lp.history = pt.history;
    run_ledger(cap, lp, o.work_dir + "/ledger", r, tr);
  }
}

// -- detect -----------------------------------------------------------------

namespace {

/// Share that makes a prefix heavy. A 1 Mi-packet 10-RHHH window is far from
/// converged (psi ~ 3.6e7), so output() adds a slack of ~0.11 N to every
/// conditioned count: at 0.15 only real aggregates clear it and output()
/// takes microseconds; at 0.10 it admits thousands of prefixes and takes
/// ~100 ms, longer than a window lasts.
constexpr double kDetectTheta = 0.15;
constexpr double kDetectGrowth = 2.0;  ///< share growth that flags a prefix

struct DetectPhase {
  std::vector<double> ready_ms;
  std::uint64_t consumed = 0;
  std::int64_t emit_ns = 0;  ///< first scheduled burst to the end of emission
  std::uint64_t onsets = 0;
  std::uint64_t onsets_flagged = 0;
  double late_ms_p99 = 0.0;

  void add(const DetectPhase& p) {
    ready_ms.insert(ready_ms.end(), p.ready_ms.begin(), p.ready_ms.end());
    consumed += p.consumed;
    emit_ns += p.emit_ns;
    onsets += p.onsets;
    onsets_flagged += p.onsets_flagged;
    late_ms_p99 = std::max(late_ms_p99, p.late_ms_p99);
  }
  [[nodiscard]] double mpps() const {
    return emit_ns > 0 ? static_cast<double>(consumed) / static_cast<double>(emit_ns) * 1e3 : 0.0;
  }
  [[nodiscard]] double onset_recall() const {
    return onsets > 0 ? static_cast<double>(onsets_flagged) / static_cast<double>(onsets) : 0.0;
  }
};

/// True when an emerging prefix aims at the flood's victim exactly.
bool flags_victim(const rhhh::Hierarchy& h, const std::vector<rhhh::EmergingPrefix>& em) {
  for (const rhhh::EmergingPrefix& e : em) {
    const rhhh::Prefix& p = e.now.prefix;
    if (h.node(p.node).len[1] == 32 && static_cast<rhhh::Ipv4>(p.key.lo) == kVictim) return true;
  }
  return false;
}

DetectPhase detect_phase(const Options& o, const Capture& cap, double seconds, int phase,
                         Result& r, EngineTally& tally, Tracer* tr) {
  Point pt;
  pt.ten_rhhh = true;
  pt.eps = 0.01;
  pt.overflow = rhhh::OverflowPolicy::kDropTail;
  pt.ring = std::size_t{1} << 18;
  // Clean and flooded halves each span two windows, so however the window
  // boundaries drift, the window holding an onset follows a clean window
  // and precedes a fully flooded one.
  pt.epoch = cap.frames / 4;
  pt.history = 8;
  const std::string dir = o.work_dir + "/detect-" + std::to_string(phase);
  fs::remove_all(dir);
  const auto eng = rhhh::make_engine(engine_config(pt, o.seed * 1000 + static_cast<std::uint64_t>(phase), dir));
  const double burst_ns = 1e9 * static_cast<double>(kBurst) / Scale::of(o).detect_pps;
  const auto shift = static_cast<std::size_t>(phase);
  Generator g(cap, eng->hierarchy(), eng->producer(0), seconds, burst_ns, shift, tr);
  // The detection loop gets a CPU of its own; the engine's threads run on
  // the CPUs left over.
  run_on(Cpus::kAllButGeneratorAndControl, shift);
  start_engine(*eng, tr);
  run_on(Cpus::kControl, shift);
  WindowWatcher watch(*eng);
  std::jthread gen([&g] { g.run(); });  // joins on unwind if the loop throws

  // The detection loop: one trend_snapshot() per new window, then each new
  // sealed window e is checked with emerging_from() against window e-1.
  // ends[e] is the index one past window e's last packet.
  DetectPhase out;
  std::vector<std::uint64_t> ends{0};
  std::vector<char> flagged(1, 0);
  std::uint64_t seen = 0;
  std::optional<rhhh::TrendSnapshot> last;
  bool behind = false;
  while (!g.done() && !behind) {
    if (eng->window_epochs() == seen) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }
    std::optional<rhhh::TrendSnapshot> ts;
    {
      const Tracer::Scope sp(tr, "engine.trend_snapshot");
      const std::int64_t t0 = now_ns();
      ts.emplace(eng->trend_snapshot());
      tally.trend_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
    const std::int64_t t_ready = now_ns();
    const std::uint64_t we = ts->window_epochs();
    for (std::uint64_t e = seen + 1; e <= we; ++e) {
      const std::size_t age = static_cast<std::size_t>(we - e);
      if (age >= ts->sealed_windows()) {
        r.check(false, "detection loop fell behind the retained history");
        behind = true;
        break;
      }
      ends.push_back(ends.back() + ts->window_length(age));
      out.ready_ms.push_back(static_cast<double>(t_ready - g.emitted_at(ends.back() - 1)) / 1e6);
      bool hit = false;
      if (age + 1 < ts->sealed_windows()) {
        const Tracer::Scope sp(tr, "core.emerging");
        hit = flags_victim(eng->hierarchy(),
                           rhhh::emerging_from(ts->window_algorithm(age),
                                               &ts->window_algorithm(age + 1), kDetectTheta,
                                               kDetectGrowth));
      }
      flagged.push_back(hit ? 1 : 0);
    }
    seen = we;
    last = std::move(ts);
  }
  gen.join();
  run_on(Cpus::kAllButGenerator);
  {
    const Tracer::Scope sp(tr, "engine.stop");
    const std::int64_t t0 = now_ns();
    eng->stop();
    tally.stop_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  watch.stop();

  out.consumed = eng->stats().consumed;
  out.emit_ns = g.end_ns() - g.start_ns();
  out.late_ms_p99 = quantile(g.late_ns(), 0.99) / 1e6;
  if (g.stalls() > 0) {
    std::fprintf(stderr, "rhhh_bench: detect: the host stalled the generator %llu time(s)\n",
                 static_cast<unsigned long long>(g.stalls()));
  }
  const std::vector<std::uint64_t> lengths = check_run(*eng, g, dir, r, tally, tr);
  window_latencies(g, lengths, watch.archived_at(), tally.archive_lag_ms);

  // Onsets: the flood starts halfway through every capture pass, in window
  // e when ends[e-1] <= start < ends[e]. It counts as flagged when window e
  // or e+1 was flagged against its predecessor.
  for (std::uint64_t s0 = cap.frames / 2;; s0 += cap.frames) {
    const auto it = std::upper_bound(ends.begin(), ends.end(), s0);
    if (it == ends.end()) break;
    const auto e = static_cast<std::size_t>(it - ends.begin());
    if (e + 1 >= flagged.size()) break;
    ++out.onsets;
    out.onsets_flagged += (flagged[e] != 0 || flagged[e + 1] != 0) ? 1 : 0;
  }
  r.check(out.onsets > 0, "no flood onset observed");
  r.attempted += out.onsets;
  r.failed += out.onsets - out.onsets_flagged;

  // The final query's newest sealed window must equal its archived copy.
  if (last && last->sealed_windows() > 0) {
    const rhhh::store::WindowArchive ar = rhhh::store::WindowArchive::open_read(dir);
    const std::uint64_t epoch = last->window_epochs();
    bool found = false;
    for (std::size_t i = ar.windows(); i-- > 0;) {
      rhhh::store::ArchivedWindow w = ar.read(i);
      if (w.meta.epoch != epoch) continue;
      found = true;
      r.check(same_hhh(last->window(0, kDetectTheta), w.window->output(kDetectTheta)) &&
                  w.window->stream_length() == last->window_length(0),
              "final query's newest window differs from its archived copy");
      break;
    }
    r.check(found, "final query's newest window is not archived");
  } else {
    r.check(false, "no sealed window was queried");
  }
  fs::remove_all(dir);
  return out;
}

/// kPlacements phases of `seconds / kPlacements`, numbered from `first`,
/// pooled.
DetectPhase detect_phases(const Options& o, const Capture& cap, double seconds, int first,
                          Result& r, EngineTally& tally, Tracer* tr) {
  DetectPhase all;
  for (int i = 0; i < kPlacements; ++i) {
    all.add(detect_phase(o, cap, seconds / kPlacements, first + i, r, tally, tr));
  }
  return all;
}

}  // namespace

void run_detect(const Options& o, Result& r, Tracer* tr) {
  const Scale sc = Scale::of(o);
  const Capture cap = timed_setup(o, sc.detect_capture, true, r, tr);
  EngineTally plain;
  const DetectPhase p = detect_phases(o, cap, tr != nullptr ? o.seconds / 2 : o.seconds, 0, r,
                                      plain, nullptr);
  r.set("throughput_mpps", p.mpps(), "Mpps");
  r.set("latency_ms_p50", quiet_median(p.ready_ms, Better::kLower), "ms");
  r.layer("latency_ms_p90", quantile(p.ready_ms, 0.9), "ms");
  r.set("recall", p.onset_recall(), "ratio");
  if (tr != nullptr) {
    EngineTally traced;
    const DetectPhase q = detect_phases(o, cap, o.seconds / 2, kPlacements, r, traced, tr);
    fill_engine_layers(traced, r);
    const double base = quiet_median(p.ready_ms, Better::kLower);
    r.layer("engine.tracing_overhead_pct",
            base > 0 ? (quiet_median(q.ready_ms, Better::kLower) / base - 1.0) * 100.0 : 0.0, "%");
    r.layer("gen.late_ms_p99", q.late_ms_p99, "ms");
    LedgerPoint lp;
    lp.ten_rhhh = true;
    lp.eps = 0.01;
    lp.window = cap.frames / 4;
    lp.history = 8;
    run_ledger(cap, lp, o.work_dir + "/ledger", r, tr);
  }
}

}  // namespace bench
