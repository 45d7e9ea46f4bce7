// HhhEngine: the sharded multi-core ingest engine.
//
// Scale-out shape (the Confluo/Akumuli "per-core writers over per-shard
// summaries" design, applied to RHHH):
//
//   producer 0 ──ring──▶ worker 0 [LatticeHhh shard]
//      │    └───ring──▶ worker 1 [LatticeHhh shard]   trend_snapshot(): quiesce
//   producer 1 ──ring──▶ worker 0         │           ─▶ at an epoch boundary,
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
// drain routine (drain()). All control operations run through one quiesce
// mechanism: workers park at the next epoch boundary (each drains its
// visible lane backlog first), the coordinator operates on the shard
// lattices, and workers resume.
//
// Two operations use it:
//   * rotate_epoch()    -- seal the current window: every shard rotates its
//                          window ring on the shared boundary. Driven
//                          manually or by the workers themselves
//                          (EngineConfig::epoch_packets: each worker
//                          meters the consumed-packet budget as it
//                          consumes, and the one whose decrement spends it
//                          is the rotator; a fallback clock thread rotates
//                          a spent budget that worker has not). A caller
//                          that wants time windows calls rotate_epoch()
//                          from its own timer.
//   * trend_snapshot()  -- merge the live shard lattices (LatticeHhh::merge,
//                          the multi-switch collector of paper Section 7)
//                          into the current window, and every retained
//                          sealed window index-aligned across shards
//                          (shared rotation boundary => ring slot i of
//                          every shard covers the same epoch) into one
//                          network-wide lattice per epoch, each window's
//                          drops folded into its N. Without rotations this
//                          is the lifetime view; with them it answers the
//                          WindowedHhhMonitor's emerging/trend/sustained
//                          queries at engine scale.
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
// every rotation hands its sealed window -- the one record trend_snapshot()
// reads too -- to a background archiver thread through a bounded queue;
// a full queue drops the window and counts it, and no thread ever waits on
// the disk. The archiver takes the window's cross-shard merge (built once,
// by whichever of a query or the archiver needs it first) and appends it
// to the segment log (store/archive.hpp), where WindowArchive answers
// last-N / time-range queries that reproduce trend_snapshot()'s sealed
// windows byte for byte. The archiver never takes snap_mu_, so stop()
// joins it under that lock, like the workers and the watchdog.
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

  /// Spawns the W worker threads (plus the fallback clock thread when the
  /// packet budget is configured, and the archiver thread when archiving
  /// is). Idempotent.
  void start();
  /// Drains the rings, stops and joins the workers, the archiver (after it
  /// has written every queued window) and the clock.
  /// Producer buffers are not flushed (call Producer::flush() from the
  /// owning thread first). Each drain is bounded by the backlog it sees,
  /// so producers still pushing cannot hold stop() up; what they push
  /// after the final sweep waits in the rings for the next start().
  /// Idempotent; also run by the destructor.
  void stop();

  /// Handle for producer `i` in [0, producers()). Hand each to one thread.
  [[nodiscard]] Producer& producer(std::uint32_t i) { return *producers_[i]; }

  /// Close the current window on a shared boundary: quiesce, rotate every
  /// shard's window ring (the oldest retained sealed window is discarded),
  /// attribute the drops counted since the last boundary to the newly
  /// sealed window, resume. With EngineConfig::epoch_packets set this
  /// happens automatically, by the worker that spends the budget (bounding
  /// boundary drift by one worker batch); manual calls compose with it
  /// (the budget resets either way). The packet budget meters CONSUMED
  /// records only -- see EngineConfig::epoch_packets for the basis
  /// contract.
  void rotate_epoch();

  /// The engine's network-wide query: quiesce every worker at the next
  /// epoch boundary, merge the live shard lattices into the current
  /// window, resume; every retained sealed window is merged across shards
  /// index-aligned (all shards rotate together, so age i covers the same
  /// epoch on every shard) at most once -- by this query, an earlier one or
  /// the archiver -- and then shared. Each window's own drops are folded into
  /// its stream length. Packets still buffered in producer handles (not
  /// flushed) are not yet part of it. An engine that never rotated has no
  /// sealed windows, so the query costs one live merge and current() is
  /// the lifetime view. Does NOT rotate -- observing is separate from
  /// sealing, so several queries can watch one window evolve. Serialized
  /// with itself and with start()/stop(); callable before start() and
  /// after stop() (no quiesce needed once workers are gone).
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
  /// Quiesce generations so far (queries + rotations).
  [[nodiscard]] std::uint64_t epochs() const noexcept {
    // order: relaxed -- monotonic counter read for display/tests; no payload
    // is synchronized through it.
    return epoch_req_.load(std::memory_order_relaxed);
  }
  /// Completed window rotations so far. Safe to poll from any thread (the
  /// detection loops of the demo/bench watch this for new sealed windows).
  [[nodiscard]] std::uint64_t window_epochs() const noexcept {
    // order: acquire -- pairs with rotate_locked()'s release fetch_add so a
    // poller that observes rotation N also observes every write the rotation
    // published before bumping the count (the sealed shard windows).
    return window_epochs_.load(std::memory_order_acquire);
  }
  /// True when the packet budget (the engine's window clock) is configured.
  [[nodiscard]] bool windowed() const noexcept { return cfg_.epoch_packets > 0; }
  /// The live (current-window) shard lattice of worker `w`. Safe to inspect
  /// when quiescent (before start(), after stop(), or from test code that
  /// knows better).
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
  /// TEST HOOK: park worker `w`'s loop (it stops consuming and acking until
  /// unblocked or the engine stops) -- the deliberate stall the watchdog
  /// acceptance test injects. Never use outside tests: a blocked worker
  /// deadlocks any control operation that quiesces.
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
    alignas(kCacheLine) std::atomic<std::uint64_t> consumed{0};
  };
  /// One producer x worker ring and its conservation counters. The
  /// producer writes `pushed`/`dropped`, the worker writes `popped`: each
  /// side's counters sit on their own cache line.
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

  /// `self` sentinel for quiesced()/rotate_locked(): no worker is driving
  /// the control operation (an external caller or the fallback clock is).
  static constexpr std::uint32_t kNoWorker = ~std::uint32_t{0};
  /// A budget rotation later than 200us counts as late: the rotating
  /// worker missed its one-batch bound by a scheduler quantum or worse.
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
  void clock_loop(std::uint64_t gen);
  /// The engine's one drain: consume from each of worker w's M lanes into
  /// its live lattice, at most one batch per lane (a regular worker pass),
  /// or with `backlog` the backlog visible in the lane at its turn (bounded
  /// by the observed size, so it terminates while producers keep pushing;
  /// later arrivals belong to the next epoch) -- the drain of a quiesce
  /// boundary, of a cooperative rotator's own rings, of a worker's shutdown
  /// and of stop()'s sweep after the join. Every consumed record spends the
  /// packet budget once; the drain whose records spend it sets *claimed
  /// (see meter_consumed()). Returns the records consumed.
  std::size_t drain(std::uint32_t w, std::vector<Key128>& batch, bool backlog,
                    bool* claimed = nullptr);
  /// Spend `n` consumed records of the packet budget (the consumed-only
  /// basis: drops never pass through here). Returns true for the one
  /// decrement per window that crosses zero (fetch_sub totally orders
  /// them); that worker records the boundary instant for drift metering
  /// and becomes the window's rotator. Called by every drain() that
  /// consumed something.
  bool meter_consumed(std::size_t n);
  /// Cooperative rotation attempt by worker w (the window's claimant):
  /// try-locks snap_mu_ (never blocks -- a worker that waited here could
  /// deadlock a control op quiescing it), re-checks that the budget is
  /// still spent, rotates. Returns false only when the lock was unavailable
  /// (keep the claim, retry next loop pass); true means the claim is
  /// settled (rotated here, or the clock or a manual rotation already
  /// reset the budget).
  bool try_rotate_cooperative(std::uint32_t w, std::vector<Key128>& batch,
                              std::uint64_t& acked);
  /// One sealed window, shared by trend_snapshot() and the archiver.
  /// `shards` are the window's ring slot in every worker: valid while the
  /// window is retained (a slot is cleared when its window leaves the
  /// ring, history_depth rotations later).
  struct SealedWindow {
    std::uint64_t epoch = 0;        ///< window_epochs_ after its rotation
    std::uint64_t drops = 0;        ///< drops attributed (folded into N)
    std::uint64_t duration_ns = 0;  ///< steady-clock live duration
    std::int64_t wall_start_ns = 0;
    std::int64_t wall_end_ns = 0;
    std::vector<const RhhhSpaceSaving*> shards;  ///< [worker]
    bool archiving = false;  ///< queued for the archiver (snap_mu_)
    std::once_flag merge_once;
    std::shared_ptr<const RhhhSpaceSaving> lattice;  ///< set by merged()
  };
  /// The window's cross-shard merge, built on first use by merge_shards()
  /// seeded kSealedSalt ^ epoch; it clears `shards`. Concurrent callers
  /// wait for the one build, which bumps trend_sealed_merges_ and sets
  /// *built (left alone otherwise).
  const std::shared_ptr<const RhhhSpaceSaving>& merged(SealedWindow& w,
                                                       bool* built = nullptr);
  /// Archiver thread body: takes each queued sealed window's merge and
  /// appends it to `arch` (counting successes and failures) until the
  /// engine stops and the queue is empty.
  void archive_loop(store::WindowArchive* arch);
  /// Queue `w` for the archiver (or drop + count on a full queue). Caller
  /// must hold snap_mu_.
  void enqueue_archive(const std::shared_ptr<SealedWindow>& w);
  /// Parks every worker at the next quiesce boundary, runs fn while they
  /// are parked, resumes them; returns the quiesce generation. Caller must
  /// hold snap_mu_. When the caller IS a worker (cooperative rotation),
  /// pass its index and batch buffer: the worker performs its own boundary
  /// drain and self-acks the epoch instead of waiting on itself.
  template <class Fn>
  std::uint64_t quiesced(Fn&& fn, std::uint32_t self = kNoWorker,
                         std::vector<Key128>* self_batch = nullptr);
  /// rotate_epoch() body; caller must hold snap_mu_. `self`/`self_batch`
  /// as in quiesced(); a rotating worker's local ack mark is updated
  /// through `self_acked` so it does not re-park on its own boundary.
  void rotate_locked(std::uint32_t self = kNoWorker,
                     std::vector<Key128>* self_batch = nullptr,
                     std::uint64_t* self_acked = nullptr);
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
  std::mutex snap_mu_;              ///< serializes snapshot/rotate/start/stop

  // Window bookkeeping. The atomics are written under snap_mu_ (rotations
  // are serialized) but read lock-free: window_epochs_ by detection loops
  // polling for new windows, the budget countdown by workers metering the
  // epoch budget at batch boundaries and by the fallback clock, neither
  // touching snap_mu_ until a rotation is actually due (so frequent
  // snapshots cannot starve either path).
  std::atomic<std::uint64_t> window_epochs_{0};
  std::uint64_t win_drops_base_ = 0;  ///< total drops at the last rotation
  /// The retained sealed windows by age (front = newest), in lockstep with
  /// the shard rings: at most history_depth. Under snap_mu_.
  std::deque<std::shared_ptr<SealedWindow>> sealed_;
  /// Packet-budget countdown for the current window: reset to epoch_packets
  /// at every boundary (inside the quiesced rotation, all workers parked),
  /// decremented by each worker's consumed batch size. The worker whose
  /// decrement crosses zero is the budget's first observer and the
  /// window's rotator. May go negative (several workers decrement
  /// concurrently, and consumption continues until the rotation); <= 0
  /// means spent.
  std::atomic<std::int64_t> epoch_budget_left_{0};
  /// Steady-clock instant the current window's budget was spent (0 = not
  /// yet): the crossing worker's now(), the ideal boundary the next
  /// rotation meters its drift against.
  std::atomic<std::int64_t> budget_spent_ns_{0};
  // Drift bookkeeping (budget-driven rotations only; manual rotate_epoch()
  // calls have no ideal boundary to drift from).
  std::atomic<std::uint64_t> budget_rotations_{0};
  std::atomic<std::uint64_t> drift_ns_total_{0};
  std::atomic<std::uint64_t> late_rotations_{0};  ///< drift > kLateRotationNs
  std::atomic<std::int64_t> win_started_ns_{0};  ///< boundary steady-clock ns
  std::int64_t win_started_wall_ns_ = 0;  ///< boundary system-clock ns (snap_mu_)
  /// Bumped by stop() to retire the current clock thread. stop() joins the
  /// moved-out handle after releasing snap_mu_ (joining under the lock
  /// would deadlock against a clock blocked on it for a rotation), so a
  /// concurrent start() can already be spawning the next clock generation;
  /// the token keeps the retired thread from ever rotating again.
  std::atomic<std::uint64_t> clock_gen_{0};
  std::thread clock_thread_;

  std::atomic<std::uint64_t> trend_cache_hits_{0};  ///< queries that merged none
  std::atomic<std::uint64_t> trend_sealed_merges_{0};  ///< merged() builds

  // Background archiver (EngineConfig::archive). The queue is bounded:
  // rotations enqueue their SealedWindow (or drop + count) without waiting
  // or serializing anything. The archiver takes the window's merge -- the
  // instance trend_snapshot() serves -- and appends it to the segment log.
  // A queued window's shard slots are reused once it leaves the ring, so
  // the rotation that evicts a queued window first calls its merged(): a
  // no-op when the archiver got there first, otherwise the one merge a
  // rotation ever runs. start() opens the store and spawns the thread;
  // stop() flips running_, joins the thread once it has written every
  // queued window (no rotation can enqueue meanwhile: stop() holds
  // snap_mu_) and seals the segment. Queue state under arch_mu_.
  std::deque<std::shared_ptr<SealedWindow>> archive_q_;
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
    obs::Histogram* rotation_ns = nullptr;    ///< full rotate_locked() cost
    obs::Histogram* rotation_drift_ns = nullptr;  ///< budget-spent -> rotation
    obs::Histogram* trend_ns = nullptr;       ///< trend_snapshot merge time
    obs::Gauge* archive_q_depth = nullptr;    ///< sealed windows queued
    obs::TraceRing* trace = nullptr;          ///< global control-plane trace
    std::vector<std::string> owned;           ///< gauge_fn names to unregister
  };
  Obs obs_;

  // Estimator health layer (src/obs/health.hpp, cfg_.health): certificate
  // ledger stamped at rotation under snap_mu_, watchdog thread sampling
  // lock-free progress state. Both null when telemetry is off.
  std::unique_ptr<obs::HealthLedger> health_;
  std::unique_ptr<obs::StallWatchdog> watchdog_;
  /// Test-only stall injection: the worker whose index matches parks in its
  /// loop until the flag clears or the engine stops (kNoWorker = none).
  std::atomic<std::uint32_t> stall_worker_{kNoWorker};
};

}  // namespace rhhh
