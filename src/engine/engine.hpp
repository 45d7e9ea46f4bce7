// HhhEngine: the sharded multi-core ingest engine.
//
// Scale-out shape (the Confluo/Akumuli "per-core writers over per-shard
// summaries" design, applied to RHHH):
//
//   producer 0 ──ring──▶ worker 0 [LatticeHhh shard]
//      │    └───ring──▶ worker 1 [LatticeHhh shard]   trend_snapshot(): quiesce
//   producer 1 ──ring──▶ worker 0         │           ─▶ every worker, then
//      │    └───ring──▶ worker 1 ─────────┘              LatticeHhh::merge all
//      ⋮                    ⋮                             shards, answer
//                                                        network-wide queries
//
// M producer threads fan packets across W worker shards. Every producer ×
// worker pair owns a dedicated lane (an SpscRing plus its push/pop/drop
// counters), so each ring stays strictly single-producer/single-consumer;
// producers batch records locally and push with try_push_n to amortize the
// ring atomics. Each worker owns a private ring of one live plus K sealed
// window lattices (core/window_ring.hpp, K = EngineConfig::history_depth;
// no shared state on the packet path) and consumes its M lanes through one
// drain routine (drain()).
//
// Windows close at cuts. A cut is one Lane::pushed sequence number per
// lane: the records of a lane below it belong to the closing window, the
// rest to the next one. A lane is a FIFO and Space-Saving lattices merge
// wherever a stream is split, so each worker rotates its own shard's ring
// once it has popped up to the cut on all of its lanes -- on its own core,
// with no other worker waiting -- and the last shard to rotate publishes
// the sealed window (certificate, archive hand-off, window_epochs()). Cuts
// are posted by the producer whose push spends the EngineConfig::
// epoch_packets budget, or by rotate_epoch(); a caller that wants time
// windows calls rotate_epoch() from its own timer.
//
// trend_snapshot() is the one operation that quiesces: workers first rotate
// through every cut posted before the request, drain their visible
// backlog, and park; the coordinator merges the live shard lattices
// (LatticeHhh::merge, the multi-switch collector of paper Section 7) into
// the current window and resumes them. Every retained sealed window is
// merged index-aligned across shards (ring slot i of every shard covers
// the same cut-to-cut window) into one network-wide lattice per epoch, once,
// each window's drops folded into its N. Without cuts this is the lifetime
// view; with them it answers the WindowedHhhMonitor's emerging/trend/
// sustained queries at engine scale.
//
// Accounting: drops are counted per lane (OverflowPolicy::kDropTail, the
// saturated-port semantics of the distributed deployment), pushes and pops
// per lane (conservation invariants; see tests/test_engine_fuzz.cpp),
// backpressure retry rounds per producer (OverflowPolicy::kBlock, the
// lossless mode the throughput benches use), and consumed packets per
// worker. One counter table (engine.cpp) names every scalar EngineStats
// field once, for stats(), its rhhh_engine_* gauge mirror and the stall
// watchdog's JSON dump.
//
// Durable archiving (EngineConfig::archive, src/store/): when enabled,
// every published window -- the one record trend_snapshot() reads too -- is
// handed to a background archiver thread through a bounded queue; a full
// queue drops the window and counts it, and no thread ever waits on the
// disk. The archiver takes the window's cross-shard merge (built once, by
// whichever of a query, the archiver or the first worker to reuse its
// slot needs it first) and appends it to the segment log
// (store/archive.hpp), where WindowArchive answers last-N / time-range
// queries that reproduce trend_snapshot()'s sealed windows byte for byte.
// The archiver never takes snap_mu_, so stop() joins it under that lock,
// like the workers and the watchdog.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/monitor.hpp"
#include "core/window_ring.hpp"
#include "engine/shard_router.hpp"
#include "engine/snapshot.hpp"
#include "hhh/lattice_hhh.hpp"
#include "util/spsc_ring.hpp"

namespace rhhh::store {
class WindowArchive;  // store/archive.hpp
}

namespace rhhh::obs {
class MetricsRegistry;  // obs/metrics.hpp -- forward-declared so the
class Gauge;            // engine header stays decoupled from the telemetry
class Histogram;        // layer; all recording happens in engine.cpp.
class TraceRing;        // obs/trace_ring.hpp
class HealthLedger;     // obs/health.hpp -- estimator health layer
class StallWatchdog;
}

namespace rhhh {

class HhhEngine {
 public:
  /// Validates the config (lattice-mode algorithm, >=1 worker/producer) and
  /// builds the shards and rings; workers start on start().
  explicit HhhEngine(const EngineConfig& cfg);
  ~HhhEngine();

  HhhEngine(const HhhEngine&) = delete;
  HhhEngine& operator=(const HhhEngine&) = delete;

  /// Per-producer-thread ingest handle. NOT thread-safe: exactly one thread
  /// may use a given handle at a time (that is what keeps every ring SPSC).
  class Producer {
   public:
    /// Buffer one packet key; flushes the target shard's batch when full.
    /// With OverflowPolicy::kBlock a full ring spins (lossless, counted as
    /// backpressure); with kDropTail the unpushable batch tail is dropped
    /// and counted against the ring.
    void ingest(Key128 key) {
      offered_local_ += 1;
      const std::uint32_t w = router_.route(key);
      auto& b = buf_[w];
      b.push_back(key);
      if (b.size() >= batch_) flush_worker(w);
    }
    /// Convenience overload mapping a packet through the engine's hierarchy.
    void ingest(const PacketRecord& p);

    /// Push out every partially filled batch (and publish the offered
    /// count). Call before trend_snapshot() for results that include
    /// everything this producer ingested.
    void flush();

    /// Packets this handle has accepted and published. Updated on each
    /// batch flush (so it may trail ingest() by up to one batch until
    /// flush() is called); safe to read from any thread.
    [[nodiscard]] std::uint64_t offered() const noexcept {
      // order: relaxed -- monotonic counter; cross-thread reads want a recent
      // value, not ordering against other memory. Exact totals come from
      // stats() under quiesce, where ctl_mu_ provides the happens-before.
      return offered_.load(std::memory_order_relaxed);
    }

   private:
    friend class HhhEngine;
    Producer(HhhEngine* eng, std::uint32_t id);
    void flush_worker(std::uint32_t w);

    HhhEngine* eng_;
    std::uint32_t id_;
    std::size_t batch_;
    ShardRouter router_;
    std::vector<std::vector<Key128>> buf_;  ///< per-worker pending batch
    std::uint64_t offered_local_ = 0;       ///< not yet published to offered_
    std::atomic<std::uint64_t> offered_{0};
    std::atomic<std::uint64_t> backpressure_{0};  ///< kBlock spin rounds
  };

  /// Spawns the W worker threads (and the archiver thread when archiving
  /// is enabled). Idempotent.
  void start();
  /// Drains the rings, rotating every shard through each cut posted before
  /// the sweep, then stops and joins the workers and the archiver (after it
  /// has written every queued window). Producer buffers are not flushed
  /// (call Producer::flush() from the owning thread first). Each drain is
  /// bounded by the backlog it sees, so producers still pushing cannot hold
  /// stop() up; what they push (and the cuts they post) after the final
  /// sweep waits in the rings for the next start(). Idempotent; also run by
  /// the destructor.
  void stop();

  /// Handle for producer `i` in [0, producers()). Hand each to one thread.
  [[nodiscard]] Producer& producer(std::uint32_t i) { return *producers_[i]; }

  /// Close the current window: post a cut at every lane's present pushed
  /// mark (the drops counted since the last cut go to the closing window)
  /// and return once every shard has rotated at it and the window is
  /// published (window_epochs() covers it; the oldest retained sealed
  /// window is discarded). Workers keep ingesting meanwhile: each rotates
  /// its own shard when it reaches the cut. On a stopped engine the cut
  /// sits at what each shard has consumed, and this thread rotates the
  /// shards. With EngineConfig::epoch_packets set, producers post cuts
  /// themselves; manual calls compose with them (the budget restarts at
  /// every cut either way).
  void rotate_epoch();

  /// The engine's network-wide query: quiesce every worker (each first
  /// rotates through every cut posted before the request, then drains its
  /// visible backlog up to the next cut), merge the live shard lattices
  /// into the current window, resume; every retained sealed window is
  /// merged across shards index-aligned (every shard rotates at the same
  /// cuts, so age i covers the same window on every shard) at most once --
  /// by this query, an earlier one, the archiver or the worker that reuses
  /// its slot -- and then shared. Each window's own drops are folded into
  /// its stream length. Packets still buffered in producer handles (not
  /// flushed) are not yet part of it. An engine that never rotated has no
  /// sealed windows, so the query costs one live merge and current() is
  /// the lifetime view. Does NOT rotate -- observing is separate from
  /// sealing, so several queries can watch one window evolve. Serialized
  /// with itself and with start()/stop()/rotate_epoch(); callable before
  /// start() and after stop() (no quiesce needed once workers are gone).
  [[nodiscard]] TrendSnapshot trend_snapshot();

  /// Live ingest counters (no quiesce; individually-consistent atomics).
  [[nodiscard]] EngineStats stats() const;

  [[nodiscard]] std::uint32_t workers() const noexcept {
    return static_cast<std::uint32_t>(workers_.size());
  }
  [[nodiscard]] std::uint32_t producers() const noexcept {
    return static_cast<std::uint32_t>(producers_.size());
  }
  [[nodiscard]] const Hierarchy& hierarchy() const noexcept { return *hierarchy_; }
  [[nodiscard]] const EngineConfig& config() const noexcept { return cfg_; }
  /// Quiesce generations so far (one per trend_snapshot()).
  [[nodiscard]] std::uint64_t epochs() const noexcept {
    // order: relaxed -- monotonic counter read for display/tests; no payload
    // is synchronized through it.
    return epoch_req_.load(std::memory_order_relaxed);
  }
  /// Completed window rotations so far. Safe to poll from any thread (the
  /// detection loops of the demo/bench watch this for new sealed windows).
  [[nodiscard]] std::uint64_t window_epochs() const noexcept {
    // order: acquire -- pairs with publish()'s release store so a poller
    // that observes window N also observes every write its publication
    // made before bumping the count (the sealed shard windows).
    return window_epochs_.load(std::memory_order_acquire);
  }
  /// True when the packet budget (the producers' window clock) is configured.
  [[nodiscard]] bool windowed() const noexcept { return cfg_.epoch_packets > 0; }
  /// The live (current-window) shard lattice of worker `w`. Safe to inspect
  /// when quiescent (before start(), after stop(), or from test code that
  /// knows better); every shard has then rotated at the same cuts.
  [[nodiscard]] const RhhhSpaceSaving& shard(std::uint32_t w) const noexcept {
    return workers_[w]->ring.live();
  }
  /// The sealed shard lattice of worker `w` from `age` epochs back (0 =
  /// newest). Requires age < shard_sealed_windows(). Same quiescence caveat.
  [[nodiscard]] const RhhhSpaceSaving& shard_sealed(std::uint32_t w,
                                                    std::size_t age) const noexcept {
    return workers_[w]->ring.sealed(age);
  }
  /// Sealed windows currently populated in every shard's ring.
  [[nodiscard]] std::size_t shard_sealed_windows() const noexcept {
    return workers_[0]->ring.sealed_count();
  }

  // -- estimator health layer (src/obs/health.hpp) --------------------------
  /// The certificate ledger, or nullptr (telemetry off or certificates
  /// disabled). Wire this into MetricsExporter for the /health route.
  [[nodiscard]] obs::HealthLedger* health() const noexcept {
    return health_.get();
  }
  /// The stall watchdog, or nullptr (telemetry off or watchdog_millis 0).
  [[nodiscard]] obs::StallWatchdog* watchdog() const noexcept {
    return watchdog_.get();
  }
  /// TEST HOOK: park worker `w`'s loop (it stops consuming, rotating and
  /// acking until unblocked or the engine stops) -- the deliberate stall the
  /// watchdog acceptance test injects. Never use outside tests: a blocked
  /// worker deadlocks trend_snapshot() and a running rotate_epoch().
  void test_block_worker(std::uint32_t w) noexcept {
    // order: relaxed -- the worker polls this flag; nothing is published
    // through it and detection latency of one loop pass is fine.
    stall_worker_.store(w, std::memory_order_relaxed);
  }
  /// TEST HOOK: release a test_block_worker() park.
  void test_unblock_workers() noexcept {
    // order: relaxed -- same poll-only contract as test_block_worker().
    stall_worker_.store(kNoWorker, std::memory_order_relaxed);
  }

 private:
  struct WorkerState {
    WindowRing<RhhhSpaceSaving> ring;  ///< live + K sealed window lattices
    std::thread thread;
    std::uint64_t epoch_acked = 0;  ///< guarded by ctl_mu_
    // Owned by the shard's consumer (its worker, or a sweeping thread).
    std::uint64_t rotations = 0;       ///< cuts this shard has rotated at
    std::vector<std::uint64_t> cut;    ///< [producer] pending cut (empty: none loaded)
    std::vector<std::uint64_t> marks;  ///< [producer] drain() scratch
    alignas(kCacheLine) std::atomic<std::uint64_t> consumed{0};
  };
  /// One producer x worker ring and its conservation counters. The
  /// producer writes `pushed`/`dropped`, the worker writes `popped`: each
  /// side's counters sit on their own cache line. `pushed` is the lane's
  /// sequence number: cuts are expressed in it, and workers pop only what
  /// it counts.
  struct Lane {
    explicit Lane(std::size_t capacity) : ring(capacity) {}
    SpscRing<Key128> ring;
    alignas(kCacheLine) std::atomic<std::uint64_t> pushed{0};
    std::atomic<std::uint64_t> dropped{0};
    alignas(kCacheLine) std::atomic<std::uint64_t> popped{0};
  };
  /// One row of the counter table (engine.cpp): a scalar EngineStats field,
  /// its key in the watchdog's "stats" dump, its rhhh_engine_* gauge mirror
  /// (null: none) and the engine atomic stats() loads into it (null: a sum
  /// stats() builds itself, or trend_sealed_merges, loaded first).
  struct Counter {
    std::uint64_t EngineStats::*field;
    const char* key;
    const char* family;
    const char* help;
    std::atomic<std::uint64_t> HhhEngine::*source;
  };
  static const Counter kCounters[];

  /// stall_worker_ sentinel: no worker is parked by the test hook.
  static constexpr std::uint32_t kNoWorker = ~std::uint32_t{0};
  /// A budget cut whose last shard starts rotating 200us after its posting
  /// is late: a worker lagged the producer by a scheduler quantum or worse.
  static constexpr std::int64_t kLateRotationNs = 200'000;

  [[nodiscard]] Lane& lane(std::uint32_t p, std::uint32_t w) noexcept {
    return *lanes_[p * workers_.size() + w];
  }
  [[nodiscard]] std::unique_ptr<RhhhSpaceSaving> make_shard_lattice(
      std::uint64_t salt) const;
  /// `shards` merged in worker order into `m`, a fresh lattice from
  /// make_shard_lattice(), and `drops` folded into its N: the live window
  /// of trend_snapshot() and every sealed window's merge.
  void merge_shards(RhhhSpaceSaving& m,
                    const std::vector<const RhhhSpaceSaving*>& shards,
                    std::uint64_t drops) const;
  void worker_loop(std::uint32_t w);
  /// The engine's one drain: consume from each of shard w's M lanes into
  /// its live lattice, never past its pending cut nor the pushed marks read
  /// at entry -- one batch per lane (a regular pass), or with `backlog` all
  /// of it (quiesce, shutdown, sweep: bounded while producers keep
  /// pushing). Returns the records consumed.
  std::size_t drain(std::uint32_t w, std::vector<Key128>& batch, bool backlog);
  /// Rotate shard w's ring at its pending cut once it has popped up to it
  /// on every lane, within the quiesce gate, and the slot it reuses is
  /// free: that window published (else this shard is history_depth windows
  /// ahead: retry later) and merged first if a reader wants it. The last
  /// shard to rotate at a cut publishes the window. True when it rotated.
  bool try_rotate(std::uint32_t w);
  /// Rotate every shard through cut `target` from this thread (no workers
  /// run), round-robin so no shard waits on one that never runs; with
  /// `backlog`, then drain what each lane shows up to the next cut.
  void sweep(std::uint64_t target, bool backlog, std::vector<Key128>& batch);
  /// Where a cut sits: at the pushed marks (a spent budget, or
  /// rotate_epoch() while running), or at what each shard consumed (a
  /// stopped rotate_epoch(); never below the previous cut).
  enum class CutAt : std::uint8_t { kBudget, kPushed, kConsumed };
  /// Post one cut (kBudget: only if the budget is spent), then every cut a
  /// still-spent budget owes; returns the first one's epoch (0: none).
  std::uint64_t post_cuts(CutAt at);
  /// A push of `n` records into `l` landed: count it and spend the budget,
  /// posting the cut when this push spends it.
  void commit_push(Lane& l, std::size_t n);
  /// One window, from its closing cut to its eviction. `shards` are its
  /// ring slot in every worker, valid until the first shard reuses one
  /// (history_depth cuts later), which first builds the merge if `wanted`
  /// (the archiver or a query holds it). Fields under cut_mu_ until
  /// published (window_epochs_ covers it), then only the merge changes.
  struct SealedWindow {
    std::uint64_t epoch = 0;        ///< window_epochs_ once published
    std::uint64_t drops = 0;        ///< drops attributed (folded into N)
    std::uint64_t duration_ns = 0;  ///< steady clock, cut to cut
    std::int64_t wall_start_ns = 0;
    std::int64_t wall_end_ns = 0;
    std::int64_t posted_ns = 0;     ///< steady clock
    bool budget = false;            ///< posted by a spent budget
    bool wanted = false;
    std::vector<std::uint64_t> cut;  ///< [p * W + w] Lane::pushed at the cut
    std::vector<const RhhhSpaceSaving*> shards;  ///< [worker], as they rotate
    std::uint32_t rotated = 0;       ///< shards rotated so far
    std::int64_t last_start_ns = 0;  ///< latest shard rotation start
    std::uint64_t pause_ns = 0;      ///< slowest shard rotation
    std::once_flag merge_once;
    std::shared_ptr<const RhhhSpaceSaving> lattice;  ///< set by merged()
  };
  /// The window's cross-shard merge, built on first use by merge_shards()
  /// seeded kSealedSalt ^ epoch; it clears `shards`. Concurrent callers
  /// wait for the one build, which bumps trend_sealed_merges_ and sets
  /// *built (left alone otherwise).
  const std::shared_ptr<const RhhhSpaceSaving>& merged(SealedWindow& w,
                                                       bool* built = nullptr);
  /// After the last shard rotated at `w`'s cut: certificate stamp, archive
  /// hand-off, drift metering, window_epochs_ bump. No snap_mu_.
  void publish(const std::shared_ptr<SealedWindow>& w);
  /// Archiver thread body: takes each queued sealed window's merge and
  /// appends it to `arch` (counting successes and failures) until the
  /// engine stops and the queue is empty.
  void archive_loop(store::WindowArchive* arch);
  /// Queue `w` for the archiver; false (counted) on a full queue.
  bool enqueue_archive(const std::shared_ptr<SealedWindow>& w);
  /// Register this engine's instruments (histograms, counter-mirror and
  /// occupancy gauges) against cfg_.metrics / the global registry when
  /// cfg_.telemetry is set; called once from the constructor. With
  /// telemetry off every obs_ pointer stays null and the hot-path hooks
  /// compile down to a pointer test (the ablation_obs_overhead baseline).
  void bind_metrics();
  /// Unregister the gauge_fn samplers that capture `this` (they must not
  /// outlive the engine); registry-owned histograms/gauges stay, so
  /// successive engines accumulate into the same cumulative families.
  void unbind_metrics();
  /// Construct the health ledger and stall watchdog per cfg_.health (only
  /// with telemetry on); called once from the constructor after
  /// bind_metrics(). The watchdog thread itself starts/stops with the
  /// engine.
  void bind_health();

  EngineConfig cfg_;
  std::unique_ptr<Hierarchy> hierarchy_;
  LatticeMode mode_;
  LatticeParams params_;  ///< resolved (kTenRhhh's V applied), base seed
  std::size_t pop_batch_;

  std::vector<std::unique_ptr<Lane>> lanes_;  ///< [p * W + w]
  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::vector<std::unique_ptr<Producer>> producers_;

  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> epoch_req_{0};
  std::atomic<std::uint64_t> epoch_resume_{0};
  std::mutex ctl_mu_;               ///< guards epoch_acked + the cv below
  std::condition_variable ctl_cv_;
  std::mutex snap_mu_;  ///< serializes snapshot/rotate_epoch/start/stop

  // Cuts and windows: the plain members below are under cut_mu_, which
  // posters, rotating shards, queries and publication take briefly, never
  // across a merge, a clear or a wait.
  std::mutex cut_mu_;
  std::condition_variable pub_cv_;  ///< window_epochs_ advanced
  /// Retained published windows (oldest first, at most history_depth),
  /// then the posted ones not every shard has rotated at yet.
  std::deque<std::shared_ptr<SealedWindow>> windows_;
  std::vector<std::uint64_t> last_cut_;  ///< [p * W + w] the newest cut
  std::uint64_t cut_drops_ = 0;          ///< total drops at the newest cut
  std::int64_t cut_ns_ = 0;              ///< its steady clock
  std::int64_t cut_wall_ns_ = 0;         ///< its system clock
  std::uint64_t win_drops_base_ = 0;     ///< drops of every published window
  /// Pending trend_snapshot(): no shard rotates past this cut.
  std::uint64_t quiesce_gate_ = ~std::uint64_t{0};
  /// Cuts posted (= the newest cut's epoch); see post_cuts().
  alignas(kCacheLine) std::atomic<std::uint64_t> cuts_announced_{0};
  /// The current window's packet budget: spent by every landed push,
  /// topped up by each cut's length; <= 0 means a cut is owed.
  alignas(kCacheLine) std::atomic<std::int64_t> epoch_budget_left_{0};
  /// When the oldest cut some shard has not rotated at was posted (steady
  /// clock, 0 = none): the watchdog's rotation_overdue mark.
  std::atomic<std::int64_t> pending_cut_ns_{0};
  std::atomic<std::uint64_t> window_epochs_{0};  ///< published windows
  // Drift bookkeeping of budget cuts, written at publication.
  std::atomic<std::uint64_t> budget_rotations_{0};
  std::atomic<std::uint64_t> drift_ns_total_{0};
  std::atomic<std::uint64_t> late_rotations_{0};  ///< drift > kLateRotationNs

  std::atomic<std::uint64_t> trend_cache_hits_{0};  ///< queries that merged none
  std::atomic<std::uint64_t> trend_sealed_merges_{0};  ///< merged() builds

  // Background archiver (EngineConfig::archive): publication enqueues its
  // SealedWindow on a bounded queue (or drops + counts), never waiting. The
  // archiver appends the window's merge -- the instance trend_snapshot()
  // serves -- to the segment log. start() opens the store and spawns the
  // thread; stop() joins it once it has written every queued window and
  // seals the segment. Queue state under arch_mu_.
  std::deque<std::shared_ptr<SealedWindow>> archive_q_;
  bool archive_quit_ = false;  ///< set by stop() once nothing can publish
  std::mutex arch_mu_;
  std::condition_variable arch_cv_;
  std::thread archive_thread_;
  std::unique_ptr<store::WindowArchive> archive_;
  std::atomic<std::uint64_t> archived_windows_{0};
  std::atomic<std::uint64_t> archive_queue_drops_{0};
  std::atomic<std::uint64_t> archive_errors_{0};

  // Always-on telemetry (src/obs/, EngineConfig::telemetry). Instruments
  // are owned by the registry; these are cached lookups so the hot path
  // records through a raw pointer (null = telemetry off). `owned` lists
  // the gauge_fn names whose samplers capture `this` -- unbind_metrics()
  // removes exactly those in the destructor.
  struct Obs {
    obs::MetricsRegistry* reg = nullptr;
    obs::Histogram* push_ns = nullptr;        ///< producer batch push latency
    obs::Histogram* pop_ns = nullptr;         ///< worker drain-pass latency
    obs::Histogram* batch_fill = nullptr;     ///< records consumed per drain pass
    obs::Histogram* quiesce_ns = nullptr;     ///< request -> all-acked wait
    obs::Histogram* rotation_ns = nullptr;    ///< slowest shard rotation per cut
    obs::Histogram* rotation_drift_ns = nullptr;  ///< cut posted -> last shard
    obs::Histogram* trend_ns = nullptr;       ///< trend_snapshot merge time
    obs::Gauge* archive_q_depth = nullptr;    ///< sealed windows queued
    obs::TraceRing* trace = nullptr;          ///< global control-plane trace
    std::vector<std::string> owned;           ///< gauge_fn names to unregister
  };
  Obs obs_;

  // Estimator health layer (src/obs/health.hpp, cfg_.health): certificate
  // ledger stamped at publication, watchdog thread sampling lock-free
  // progress state. Both null when telemetry is off.
  std::unique_ptr<obs::HealthLedger> health_;
  std::unique_ptr<obs::StallWatchdog> watchdog_;
  /// Test-only stall injection: the worker whose index matches parks in its
  /// loop until the flag clears or the engine stops (kNoWorker = none).
  std::atomic<std::uint32_t> stall_worker_{kNoWorker};
};

}  // namespace rhhh
