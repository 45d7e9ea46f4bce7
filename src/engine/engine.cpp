#include "engine/engine.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <tuple>

#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_ring.hpp"
#include "store/archive.hpp"

namespace rhhh {

namespace {

/// Seed salt of every merged sealed window, xor'ed with the window's own
/// epoch: the merge's bytes do not depend on which reader builds it.
constexpr std::uint64_t kSealedSalt = 0x6e7ac000ULL;

}  // namespace

// The counter table: every scalar EngineStats field once, with its key in
// the stall watchdog's "stats" dump and its rhhh_engine_* gauge mirror.
// stats() loads `source` (relaxed) where a row names one and builds the
// others itself.
const HhhEngine::Counter HhhEngine::kCounters[] = {
    {&EngineStats::offered, "offered", "rhhh_engine_offered",
     "records accepted and published by producer handles", nullptr},
    {&EngineStats::consumed, "consumed", "rhhh_engine_consumed",
     "records consumed into shard lattices", nullptr},
    {&EngineStats::dropped, "dropped", "rhhh_engine_dropped",
     "records dropped at full rings (kDropTail)", nullptr},
    {&EngineStats::backpressure_waits, "backpressure_waits",
     "rhhh_engine_backpressure_waits",
     "producer spin rounds on full rings (kBlock)", nullptr},
    {&EngineStats::epochs, "epochs", "rhhh_engine_epochs",
     "quiesce generations (snapshots + rotations)", &HhhEngine::epoch_req_},
    {&EngineStats::window_epochs, "window_epochs", "rhhh_engine_window_epochs",
     "completed window rotations", &HhhEngine::window_epochs_},
    {&EngineStats::archived_windows, "archived_windows",
     "rhhh_engine_archived_windows", "windows persisted by the archiver",
     &HhhEngine::archived_windows_},
    {&EngineStats::archive_queue_drops, "archive_queue_drops",
     "rhhh_engine_archive_queue_drops",
     "sealed windows dropped at a full archiver queue",
     &HhhEngine::archive_queue_drops_},
    {&EngineStats::archive_errors, "archive_errors", "rhhh_engine_archive_errors",
     "windows lost to archive I/O errors", &HhhEngine::archive_errors_},
    {&EngineStats::trend_cache_hits, "trend_cache_hits",
     "rhhh_engine_trend_cache_hits",
     "trend_snapshot calls that merged no sealed window",
     &HhhEngine::trend_cache_hits_},
    {&EngineStats::trend_sealed_merges, "trend_sealed_merges",
     "rhhh_engine_trend_sealed_merges",
     "sealed windows merged across shards, by queries or the archiver "
     "(at most once each: <= window_epochs)",
     nullptr},
    {&EngineStats::budget_rotations, "budget_rotations",
     "rhhh_engine_budget_rotations",
     "budget-driven rotations (the drift-metered subset)",
     &HhhEngine::budget_rotations_},
    {&EngineStats::rotation_drift_ns_total, "rotation_drift_ns_total", nullptr,
     nullptr, &HhhEngine::drift_ns_total_},
    {&EngineStats::late_rotations, "late_rotations", "rhhh_engine_late_rotations",
     "budget rotations later than 200us", &HhhEngine::late_rotations_},
};

// ------------------------------------------------------------- Producer ----

HhhEngine::Producer::Producer(HhhEngine* eng, std::uint32_t id)
    : eng_(eng),
      id_(id),
      batch_(eng->cfg_.batch),
      // All producers share the hash salt (one key -> one shard engine-wide);
      // the round-robin cursor is staggered by producer id.
      router_(eng->cfg_.policy, eng->workers(), eng->params_.seed, id),
      buf_(eng->workers()) {
  for (auto& b : buf_) b.reserve(batch_);
}

void HhhEngine::Producer::ingest(const PacketRecord& p) {
  ingest(eng_->hierarchy().key_of(p));
}

void HhhEngine::Producer::flush() {
  for (std::uint32_t w = 0; w < eng_->workers(); ++w) flush_worker(w);
}

void HhhEngine::Producer::flush_worker(std::uint32_t w) {
  auto& b = buf_[w];
  if (offered_local_ != 0) {
    // order: relaxed -- monotonic counter; exact reads happen under quiesce
    // (ctl_mu_ hand-off), approximate reads tolerate staleness.
    offered_.fetch_add(offered_local_, std::memory_order_relaxed);
    offered_local_ = 0;
  }
  if (b.empty()) return;
  // Telemetry probe: two clock reads per batch (~64 keys), recorded only
  // when the engine is instrumented -- the compiled-out baseline is a
  // single pointer test.
  const std::uint64_t obs_t0 =
      eng_->obs_.push_ns != nullptr ? obs::now_ns() : 0;
  Lane& lane = eng_->lane(id_, w);
  const Key128* data = b.data();
  std::size_t left = b.size();
  std::size_t pushed = 0;
  while (left != 0) {
    const std::size_t sent = lane.ring.try_push_n(data, left);
    data += sent;
    left -= sent;
    pushed += sent;
    if (left == 0) break;
    // Lossless only while workers are consuming; a stopped engine turns
    // kBlock into drop-tail rather than spinning forever.
    // order: acquire -- pairs with stop()'s acq_rel exchange of running_; a
    // producer that observes the stop must not keep spinning on a ring whose
    // consumer is being joined.
    if (eng_->cfg_.overflow == OverflowPolicy::kDropTail ||
        !eng_->running_.load(std::memory_order_acquire)) {
      // order: relaxed -- drop counter; summed exactly under quiesce only.
      lane.dropped.fetch_add(left, std::memory_order_relaxed);
      break;
    }
    // order: relaxed -- backpressure-retry counter, diagnostic only.
    backpressure_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::yield();
  }
  if (pushed != 0) {
    // order: relaxed -- push counter; the records themselves were published
    // by the ring's release store, not by this statistic.
    lane.pushed.fetch_add(pushed, std::memory_order_relaxed);
  }
  if (eng_->obs_.push_ns != nullptr) eng_->obs_.push_ns->record_since(obs_t0);
  b.clear();
}

// ------------------------------------------------------------ HhhEngine ----

HhhEngine::HhhEngine(const EngineConfig& cfg)
    : cfg_(cfg),
      hierarchy_(std::make_unique<Hierarchy>(make_hierarchy(cfg.monitor.hierarchy))) {
  if (cfg.workers == 0) throw std::invalid_argument("HhhEngine: workers must be >= 1");
  if (cfg.producers == 0) {
    throw std::invalid_argument("HhhEngine: producers must be >= 1");
  }
  if (cfg.batch == 0) throw std::invalid_argument("HhhEngine: batch must be >= 1");
  if (cfg.history_depth == 0) {
    throw std::invalid_argument("HhhEngine: history_depth must be >= 1");
  }
  if (cfg.archive.enabled() && cfg.archive.queue_windows == 0) {
    throw std::invalid_argument("HhhEngine: archive queue_windows must be >= 1");
  }
  std::tie(mode_, params_) = lattice_config_of(*hierarchy_, cfg.monitor);

  pop_batch_ = std::clamp<std::size_t>(cfg.batch, 1, 4096);
  workers_.reserve(cfg.workers);
  for (std::uint32_t w = 0; w < cfg.workers; ++w) {
    auto ws = std::make_unique<WorkerState>();
    // Every ring slot gets a distinct RNG stream; all slots stay
    // merge-compatible with every other shard by construction. The salt
    // spacing keeps depth-1 rings byte-identical to the original
    // live/sealed pair (slots 0x5eed0000 + w and 0x5eed2000 + w).
    ws->ring = WindowRing<RhhhSpaceSaving>(cfg.history_depth, [&](std::size_t slot) {
      return make_shard_lattice(0x5eed0000ULL + 0x2000ULL * slot + w);
    });
    workers_.push_back(std::move(ws));
  }
  const std::size_t n_lanes = std::size_t{cfg.producers} * cfg.workers;
  lanes_.reserve(n_lanes);
  for (std::size_t i = 0; i < n_lanes; ++i) {
    lanes_.push_back(std::make_unique<Lane>(cfg.ring_capacity));
  }
  producers_.reserve(cfg.producers);
  for (std::uint32_t p = 0; p < cfg.producers; ++p) {
    producers_.push_back(std::unique_ptr<Producer>(new Producer(this, p)));
  }
  // order: relaxed -- constructor runs single-threaded; the handoff to any
  // thread happens-before via std::thread creation in start().
  win_started_ns_.store(
      std::chrono::steady_clock::now().time_since_epoch().count(),
      std::memory_order_relaxed);
  win_started_wall_ns_ =
      std::chrono::system_clock::now().time_since_epoch().count();
  // The archiver inherits the engine's telemetry switch and registry unless
  // the archive config overrides them explicitly.
  if (!cfg_.telemetry) cfg_.archive.telemetry = false;
  if (cfg_.archive.metrics == nullptr) cfg_.archive.metrics = cfg_.metrics;
  bind_metrics();
  bind_health();
}

HhhEngine::~HhhEngine() {
  stop();
  // After stop(): no worker/clock/archiver thread can touch obs_ anymore,
  // and the registry must stop sampling the `this`-capturing gauges before
  // the members they read are destroyed.
  unbind_metrics();
}

void HhhEngine::bind_metrics() {
  if (!cfg_.telemetry) return;
  obs::MetricsRegistry& reg =
      cfg_.metrics != nullptr ? *cfg_.metrics : obs::MetricsRegistry::global();
  obs_.reg = &reg;
  obs_.trace = &obs::TraceRing::global();
  // Histograms and the queue-depth gauge are registry-owned and cumulative:
  // successive engines (bench sweeps) accumulate into the same families.
  obs_.push_ns = &reg.histogram("rhhh_engine_push_batch_ns",
                                "producer batch push latency (ns)");
  obs_.pop_ns = &reg.histogram("rhhh_engine_pop_batch_ns",
                               "worker drain-pass latency (ns)");
  obs_.batch_fill = &reg.histogram(
      "rhhh_engine_batch_fill",
      "records consumed per productive drain pass (batching efficacy)");
  obs_.quiesce_ns = &reg.histogram(
      "rhhh_engine_quiesce_ns", "epoch boundary request->all-acked wait (ns)");
  obs_.rotation_ns =
      &reg.histogram("rhhh_engine_rotation_ns", "window rotation cost (ns)");
  obs_.rotation_drift_ns = &reg.histogram(
      "rhhh_engine_rotation_drift_ns",
      "budget-spent to rotation-start drift (ns, budget-driven rotations)");
  obs_.trend_ns = &reg.histogram("rhhh_engine_trend_merge_ns",
                                 "trend_snapshot merge time (ns)");
  obs_.archive_q_depth = &reg.gauge("rhhh_engine_archive_queue_depth",
                                    "sealed windows queued for the archiver");
  // Counter mirrors and occupancy: gauge_fn samplers over the engine's own
  // atomics (lock-free reads only -- the registry samples them under its
  // scrape mutex). Every mirror samples stats(), so it reads exactly what
  // stats() reports. They capture `this`, so every name goes on the owned
  // list and dies with the engine.
  const auto own = [&](const std::string& name, std::function<double()> fn,
                       const std::string& help) {
    reg.gauge_fn(name, std::move(fn), help);
    obs_.owned.push_back(name);
  };
  for (const Counter& c : kCounters) {
    if (c.family == nullptr) continue;
    own(c.family,
        [this, f = c.field] { return static_cast<double>(stats().*f); },
        c.help);
  }
  for (std::uint32_t p = 0; p < producers(); ++p) {
    for (std::uint32_t w = 0; w < workers(); ++w) {
      own("rhhh_engine_ring_occupancy{ring=\"p" + std::to_string(p) + "w" +
              std::to_string(w) + "\"}",
          [this, p, w] {
            return static_cast<double>(lane(p, w).ring.size_approx());
          },
          "records in flight per producer x worker ring");
    }
  }
}

void HhhEngine::unbind_metrics() {
  if (obs_.reg == nullptr) return;
  for (const std::string& name : obs_.owned) obs_.reg->unregister(name);
  obs_.owned.clear();
  obs_.reg = nullptr;
}

void HhhEngine::bind_health() {
  // The whole health layer rides the telemetry switch: an uninstrumented
  // engine carries no ledger, no watchdog, and no rotation-path probe cost
  // beyond one null test.
  if (!cfg_.telemetry) return;
  if (cfg_.health.certificates) {
    health_ = std::make_unique<obs::HealthLedger>(obs_.reg, cfg_.health.keep);
  }
  if (!cfg_.health.watchdog_enabled()) return;
  obs::StallWatchdog::Config wcfg;
  wcfg.period_ns =
      static_cast<std::uint64_t>(cfg_.health.watchdog_millis) * 1'000'000;
  wcfg.dump_path = cfg_.health.dump_path;
  // The sampler runs on the watchdog's thread while the engine may be
  // stalled inside a control op: it must stay lock-free (NEVER snap_mu_ --
  // a wedged rotation HOLDS snap_mu_, and diagnosing exactly that case is
  // the watchdog's job). stats() and everything below are atomic loads.
  const std::int64_t period = static_cast<std::int64_t>(wcfg.period_ns);
  auto sampler = [this, period]() -> obs::StallWatchdog::Progress {
    obs::StallWatchdog::Progress p;
    const EngineStats s = stats();
    p.consumed = s.consumed;
    p.window_epochs = s.window_epochs;
    for (const auto& l : lanes_) p.backlog += l->ring.size_approx();
    // order: relaxed -- liveness probe; a stale read costs one period.
    if (windowed() && running_.load(std::memory_order_relaxed)) {
      const std::int64_t now =
          std::chrono::steady_clock::now().time_since_epoch().count();
      // order: relaxed -- stale-tolerant drift mark (see meter_consumed);
      // "overdue" means a full watchdog period past the ideal boundary.
      const std::int64_t mark =
          budget_spent_ns_.load(std::memory_order_relaxed);
      p.rotation_overdue = mark != 0 && now > mark + period;
    }
    return p;
  };
  // stats() is all atomic loads -- safe from the watchdog thread even while
  // the engine is wedged. The dump's "stats" object is the counter table as
  // a flat JSON object.
  auto stats_fn = [this] {
    const EngineStats s = stats();
    std::string out = "{";
    for (const Counter& c : kCounters) {
      if (out.size() > 1) out += ',';
      out += '"';
      out += c.key;
      out += "\":";
      out += std::to_string(s.*c.field);
    }
    out += '}';
    return out;
  };
  watchdog_ = std::make_unique<obs::StallWatchdog>(
      std::move(wcfg), std::move(sampler), std::move(stats_fn), health_.get(),
      obs_.trace, obs_.reg);
}

std::unique_ptr<RhhhSpaceSaving> HhhEngine::make_shard_lattice(
    std::uint64_t salt) const {
  LatticeParams lp = params_;
  // Distinct per-shard RNG streams; merge compatibility only needs the
  // hierarchy/mode/V/r to match, which cloning the params guarantees.
  lp.seed = mix64(params_.seed ^ salt);
  return std::make_unique<RhhhSpaceSaving>(*hierarchy_, mode_, lp);
}

void HhhEngine::start() {
  // snap_mu_ serializes all control ops (start/stop/snapshot/rotate) so a
  // no-quiesce snapshot can never overlap freshly spawned workers.
  std::lock_guard<std::mutex> snap_lk(snap_mu_);
  // order: relaxed -- running_ is only written under snap_mu_ (held here),
  // so the flag cannot change between this check and the store below.
  if (running_.load(std::memory_order_relaxed)) return;
  if (cfg_.archive.enabled() && archive_ == nullptr) {
    // Opening the store can fail (bad directory, permissions): do it
    // before anything else runs so a throwing start() leaves the engine
    // fully stopped. Numbering continues after any existing segments.
    archive_ = std::make_unique<store::WindowArchive>(
        store::WindowArchive::open_write(cfg_.archive));
  }
  // order: release -- pairs with the acquire loads in flush_worker() and
  // worker_loop(): a thread that observes running_ == true also observes the
  // archive_ initialization above (workers/producers are created by this
  // thread, but producer handles may be polled from threads start() never
  // spawned).
  running_.store(true, std::memory_order_release);
  if (windowed()) {
    // Reset the budget state BEFORE any worker thread exists: workers meter
    // the budget from their first batch, and a previous run may have left a
    // spent countdown behind (a claim dies with the worker stop() joined).
    // order: relaxed x3 -- read by the worker threads created below;
    // std::thread creation is the happens-before edge, not these atomics.
    win_started_ns_.store(
        std::chrono::steady_clock::now().time_since_epoch().count(),
        std::memory_order_relaxed);
    epoch_budget_left_.store(static_cast<std::int64_t>(cfg_.epoch_packets),
                             std::memory_order_relaxed);
    budget_spent_ns_.store(0, std::memory_order_relaxed);
  }
  for (std::uint32_t w = 0; w < workers(); ++w) {
    workers_[w]->thread = std::thread([this, w] { worker_loop(w); });
  }
  if (windowed()) {
    // order: relaxed -- the generation token is read by the clock thread
    // created on the next line; thread creation is the happens-before edge.
    const std::uint64_t gen = clock_gen_.load(std::memory_order_relaxed);
    clock_thread_ = std::thread([this, gen] { clock_loop(gen); });
  }
  if (archive_ != nullptr) {
    win_started_wall_ns_ =
        std::chrono::system_clock::now().time_since_epoch().count();
    archive_thread_ =
        std::thread([this, arch = archive_.get()] { archive_loop(arch); });
  }
  // Last: the watchdog observes a fully started engine from its first
  // sample (its sampler never touches snap_mu_, so starting it under the
  // lock is fine).
  if (watchdog_ != nullptr) watchdog_->start();
}

void HhhEngine::stop() {
  std::unique_lock<std::mutex> snap_lk(snap_mu_);
  // order: acq_rel -- the release half publishes the flip to the acquire
  // loads in flush_worker()/worker_loop() (spinning kBlock producers fall
  // back to drop-tail, workers enter their shutdown drain); the acquire half
  // pairs with start()'s release store so the losing racer of two stop()
  // calls returns seeing a fully-started engine, never a half-built one.
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Retire the watchdog before the workers stop consuming: a draining
  // shutdown must never read as a stall. Its thread never takes snap_mu_,
  // so the join under the lock cannot deadlock.
  if (watchdog_ != nullptr) watchdog_->stop();
  {
    std::lock_guard<std::mutex> lk(ctl_mu_);
    ctl_cv_.notify_all();
  }
  for (auto& ws : workers_) {
    if (ws->thread.joinable()) ws->thread.join();
  }
  // A producer racing stop() can slip a batch into a ring after that
  // worker's shutdown drain; sweep the rings once more from here (workers
  // are joined, so this thread is the only consumer) so no record pushed
  // before stop() returns is stranded outside consumed/dropped accounting.
  // Bounded by the backlog visible now, like the workers' own shutdown
  // drain: a producer that keeps pushing cannot keep stop() from returning.
  std::vector<Key128> batch(pop_batch_);
  for (std::uint32_t w = 0; w < workers(); ++w) (void)drain(w, batch, true);
  // The archiver never takes snap_mu_, so it is joined under the lock like
  // the workers: it writes every queued window, sees running_ == false and
  // exits, and no rotation can enqueue meanwhile (rotations need
  // snap_mu_). Taking arch_mu_ once orders the flip before its next
  // predicate check, so the notify cannot be lost. Then seal the segment so
  // a cold reader gets the footer-indexed fast path; a later start() opens
  // a fresh one.
  if (archive_thread_.joinable()) {
    { std::lock_guard<std::mutex> lk(arch_mu_); }
    arch_cv_.notify_all();
    archive_thread_.join();
  }
  if (archive_ != nullptr) {
    try {
      archive_->close();
    } catch (const std::exception&) {
      // order: relaxed -- error counter; no payload rides on it.
      archive_errors_.fetch_add(1, std::memory_order_relaxed);
    }
    archive_.reset();
  }
  // Retire the clock generation and take its handle while still under
  // snap_mu_ (so a concurrent start() never assigns over a joinable
  // thread), but join OUTSIDE the lock: the clock may be blocked on
  // snap_mu_ for a rotation, and the stale generation token makes it exit
  // without rotating as soon as it gets through.
  // order: release -- pairs with clock_loop()'s acquire load of clock_gen_;
  // a clock that observes the new generation also observes running_ == false
  // and every teardown write sequenced before this bump.
  clock_gen_.fetch_add(1, std::memory_order_release);
  std::thread clock = std::move(clock_thread_);
  snap_lk.unlock();
  if (clock.joinable()) clock.join();
}

void HhhEngine::archive_loop(store::WindowArchive* arch) {
  for (;;) {
    std::shared_ptr<SealedWindow> w;
    {
      std::unique_lock<std::mutex> lk(arch_mu_);
      arch_cv_.wait(lk, [&] {
        // order: acquire -- pairs with stop()'s acq_rel exchange; stop()
        // takes arch_mu_ after the flip, so this check cannot miss it.
        return !archive_q_.empty() || !running_.load(std::memory_order_acquire);
      });
      // Stopped AND drained: exit. While records remain, keep writing
      // after the stop so stop() loses nothing.
      if (archive_q_.empty()) return;
      w = std::move(archive_q_.front());
      archive_q_.pop_front();
      if (obs_.archive_q_depth != nullptr) {
        obs_.archive_q_depth->set(static_cast<std::int64_t>(archive_q_.size()));
      }
    }
    // The merge (unless a query built it first), serialization and disk
    // I/O all happen here, outside every engine lock: an archiver stalled
    // on a slow disk delays nothing but the queue.
    try {
      // The same instance trend_snapshot() serves for this window, so the
      // persisted HHH sets are byte-identical to the in-memory view.
      const RhhhSpaceSaving& lattice = *merged(*w);
      store::WindowMeta meta;
      meta.epoch = w->epoch;
      meta.wall_start_ns = w->wall_start_ns;
      meta.wall_end_ns = w->wall_end_ns;
      meta.duration_ns = w->duration_ns;
      meta.drops = w->drops;
      meta.stream_length = lattice.stream_length();  // drops included
      meta.updates = lattice.updates_performed();
      const std::uint64_t append_t0 = obs_.trace != nullptr ? obs::now_ns() : 0;
      arch->append(meta, cfg_.monitor.hierarchy, lattice);
      // order: relaxed -- success counter; readers that need it consistent
      // with the on-disk state reopen the store instead.
      archived_windows_.fetch_add(1, std::memory_order_relaxed);
      if (obs_.trace != nullptr) {
        const std::uint64_t now = obs::now_ns();
        obs_.trace->record(obs::TraceEvent::kArchive,
                           static_cast<std::int64_t>(now), w->epoch,
                           now >= append_t0 ? now - append_t0 : 0);
      }
    } catch (const std::exception&) {
      // Window lost (disk full, I/O error); count loudly and keep going.
      // order: relaxed -- error counter; no payload rides on it.
      archive_errors_.fetch_add(1, std::memory_order_relaxed);
      if (obs_.trace != nullptr) {
        obs_.trace->record(obs::TraceEvent::kArchiveError,
                           static_cast<std::int64_t>(obs::now_ns()), w->epoch, 0);
      }
    }
  }
}

void HhhEngine::enqueue_archive(const std::shared_ptr<SealedWindow>& w) {
  {
    std::lock_guard<std::mutex> lk(arch_mu_);
    if (archive_q_.size() >= cfg_.archive.queue_windows) {
      // order: relaxed -- drop counter; the queue itself is under arch_mu_.
      archive_queue_drops_.fetch_add(1, std::memory_order_relaxed);
      if (obs_.trace != nullptr) {
        obs_.trace->record(obs::TraceEvent::kArchiveDrop,
                           static_cast<std::int64_t>(obs::now_ns()), w->epoch, 0);
      }
      return;
    }
    w->archiving = true;
    archive_q_.push_back(w);
    if (obs_.archive_q_depth != nullptr) {
      obs_.archive_q_depth->set(static_cast<std::int64_t>(archive_q_.size()));
    }
  }
  arch_cv_.notify_one();
}

std::size_t HhhEngine::drain(std::uint32_t w, std::vector<Key128>& batch,
                             bool backlog, bool* claimed) {
  WorkerState& ws = *workers_[w];
  RhhhSpaceSaving& lattice = ws.ring.live();
  std::size_t total = 0;
  for (std::uint32_t p = 0; p < producers(); ++p) {
    Lane& l = lane(p, w);
    // A regular pass pops at most one batch per lane; a backlog drain pops
    // batches until the size observed here is consumed.
    std::size_t left = backlog ? l.ring.size_approx() : batch.size();
    while (left != 0) {
      const std::size_t n =
          l.ring.try_pop_n(batch.data(), std::min(batch.size(), left));
      if (n == 0) break;
      // Whole popped batches feed the staged LatticeHhh pipeline (block-RNG,
      // survivor compaction, prefetched apply) -- state remains
      // byte-identical to per-record update() calls by the update_batch
      // contract.
      lattice.update_batch(batch.data(), n);
      // Counted per popped batch, so at most one batch per worker is ever
      // out of the rings and not yet consumed (the in-flight bound that
      // MetricsConservationUnderChaos checks).
      // order: relaxed x2 -- pop and consumed counters; record visibility
      // came from the ring, and exact reads happen under quiesce only.
      l.popped.fetch_add(n, std::memory_order_relaxed);
      ws.consumed.fetch_add(n, std::memory_order_relaxed);
      total += n;
      left = backlog ? left - n : 0;
    }
  }
  // Consumed records reached the live lattice, so they spend the packet
  // budget (the consumed-only basis). At a rotation boundary the decrement
  // lands before this worker's ack -- and therefore before the budget
  // reset, which runs only once every worker has acked -- so it is wiped
  // with the sealed window, never leaked into the fresh one.
  if (total != 0 && windowed() && meter_consumed(total) && claimed != nullptr) {
    *claimed = true;
  }
  return total;
}

void HhhEngine::worker_loop(std::uint32_t w) {
  WorkerState& ws = *workers_[w];
  std::vector<Key128> batch(pop_batch_);
  std::uint64_t acked = 0;
  // Worker-driven rotation state. drain() sets `claimed` when this worker's
  // decrement spends the window's packet budget -- exactly one worker per
  // window, whether the decrement came from a regular pass or a boundary
  // drain -- and it is held across loop passes while snap_mu_ is busy (the
  // claim survives quiesce boundaries: a try-lock miss below never blocks
  // this worker from acking them).
  bool claimed = false;
  for (;;) {
    // TEST HOOK (see test_block_worker): park while singled out. Costs the
    // production path one relaxed load + compare per drain pass.
    // order: relaxed -- poll-only injection flag; no payload rides on it.
    while (stall_worker_.load(std::memory_order_relaxed) == w) {
      // order: relaxed -- stop() unparks us; its acq_rel flip is re-checked
      // with proper ordering by the shutdown path below.
      if (!running_.load(std::memory_order_relaxed)) break;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    // Telemetry probe: one clock read per pass, recorded only for passes that
    // consumed something (idle spins would swamp the histograms with noise).
    const std::uint64_t obs_t0 = obs_.pop_ns != nullptr ? obs::now_ns() : 0;
    // Amortized budget metering inside: one relaxed fetch_sub per pass, so
    // the per-record update stays O(1).
    const std::size_t got = drain(w, batch, /*backlog=*/false, &claimed);
    if (got != 0 && obs_.pop_ns != nullptr) {
      obs_.pop_ns->record_since(obs_t0);
      // Batching efficacy: how full each productive pass ran.
      obs_.batch_fill->record(got);
    }
    // Retried on every pass, traffic or not, until settled: either we
    // rotated, or a manual rotation already reset the budget. A false
    // return keeps the claim: snap_mu_ was busy, retry on the next pass
    // (after servicing any boundary below).
    if (claimed && try_rotate_cooperative(w, batch, acked)) claimed = false;
    // order: acquire -- pairs with quiesced()'s release store: a worker that
    // sees the new epoch also sees every coordinator write sequenced before
    // the request (nothing rides on it today, but the boundary must not be
    // weaker than the request that created it).
    const std::uint64_t e = epoch_req_.load(std::memory_order_acquire);
    if (e > acked) {
      // Epoch boundary: consume exactly the backlog visible in each ring at
      // this instant, then ack and park until the coordinator is done with
      // this shard's lattices (merging, or rotating the window pair). A
      // drain that spends the budget makes this worker the claimant: it
      // rotates after the resume even if no traffic follows.
      (void)drain(w, batch, /*backlog=*/true, &claimed);
      std::unique_lock<std::mutex> lk(ctl_mu_);
      ws.epoch_acked = e;
      acked = e;
      ctl_cv_.notify_all();
      ctl_cv_.wait(lk, [&] {
        // order: relaxed x2 -- both flags are checked under ctl_mu_, and
        // their writers (quiesced() resume, stop()) notify under the same
        // mutex: the lock is the happens-before edge, not the atomics.
        return epoch_resume_.load(std::memory_order_relaxed) >= e ||
               !running_.load(std::memory_order_relaxed);
      });
      continue;
    }
    // order: acquire -- pairs with stop()'s acq_rel exchange; observing
    // the stop must also observe any record a producer pushed before it
    // observed the stop (the final drain below must not miss them).
    if (!running_.load(std::memory_order_acquire)) {
      // Shutdown: consume the backlog visible now, then exit. Checked on
      // every pass and bounded by the observed size, so producers that
      // keep the rings busy cannot keep this worker (and stop()) running.
      (void)drain(w, batch, /*backlog=*/true);
      return;
    }
    if (got == 0) std::this_thread::yield();
  }
}

bool HhhEngine::meter_consumed(std::size_t n) {
  // order: relaxed -- the countdown is budget bookkeeping, not a
  // synchronization point: the rotator re-checks under snap_mu_ before
  // acting, and the reset inside the quiesced rotation cannot race a
  // decrement (every worker is parked past its boundary drain by then).
  const std::int64_t old = epoch_budget_left_.fetch_sub(
      static_cast<std::int64_t>(n), std::memory_order_relaxed);
  // Exactly one decrement per window takes the countdown from positive to
  // spent (fetch_sub totally orders them).
  if (old <= 0 || old > static_cast<std::int64_t>(n)) return false;
  // order: relaxed -- the mark's one writer per window stores it before
  // acking any boundary under ctl_mu_, and the rotator reads it (then
  // resets it) only after every ack: the ctl_mu_ hand-off is the edge.
  budget_spent_ns_.store(
      std::chrono::steady_clock::now().time_since_epoch().count(),
      std::memory_order_relaxed);
  return true;
}

bool HhhEngine::try_rotate_cooperative(std::uint32_t w,
                                       std::vector<Key128>& batch,
                                       std::uint64_t& acked) {
  // NEVER block on snap_mu_ here: a control op holding it may be waiting
  // for this very worker's quiesce ack. On a miss the worker keeps the
  // claim, services any pending boundary, and retries after the next batch.
  std::unique_lock<std::mutex> snap_lk(snap_mu_, std::try_to_lock);
  if (!snap_lk.owns_lock()) return false;
  // order: relaxed -- running_ only flips under snap_mu_ (held); a stopping
  // engine settles the claim without rotating.
  if (!running_.load(std::memory_order_relaxed)) return true;
  // Re-check under the lock: a manual rotate_epoch() or the fallback clock
  // may have rotated (and reset the budget) while we held the claim -- the
  // claim then simply dissolves. No double rotation is possible.
  // order: relaxed -- the budget is reset only inside a rotation, under
  // snap_mu_ (held).
  if (epoch_budget_left_.load(std::memory_order_relaxed) > 0) return true;
  rotate_locked(w, &batch, &acked);
  return true;
}

void HhhEngine::clock_loop(std::uint64_t gen) {
  // The fallback clock. The worker whose decrement spends the budget is
  // the window's rotator, so this thread only rotates a spent budget that
  // worker has not rotated by the next 200us tick (it is losing try_lock
  // to a stream of queries, say). It polls the countdown lock-free and
  // takes snap_mu_ only when a rotation is due. Without it, the end-to-end
  // benchmark's wire10 seal latency (latency_ms_p50) went from ~1.3 ms to
  // 2.3-3.6 ms on a 4-vCPU VM, a scheduling effect of its 200us wakeups
  // that is not yet understood, so it stays for now. A stale generation
  // token (retired by stop(), possibly with a successor running) exits
  // without touching anything.
  constexpr auto kTimeslice = std::chrono::microseconds(200);
  // order: acquire x2 -- pair with stop()'s release bump of clock_gen_ and
  // acq_rel flip of running_: a retired/stopped clock must also observe the
  // teardown that retired it before touching anything.
  while (clock_gen_.load(std::memory_order_acquire) == gen &&
         running_.load(std::memory_order_acquire)) {
    // order: relaxed -- stale-tolerant poll; re-checked under snap_mu_.
    if (epoch_budget_left_.load(std::memory_order_relaxed) > 0) {
      std::this_thread::sleep_for(kTimeslice);
      continue;
    }
    std::lock_guard<std::mutex> lk(snap_mu_);
    // order: acquire x2 -- re-check under snap_mu_; stop() may have retired
    // this generation while we slept or waited for the lock.
    if (clock_gen_.load(std::memory_order_acquire) != gen ||
        !running_.load(std::memory_order_acquire)) {
      break;
    }
    // Re-check under the lock: a worker or a manual rotate_epoch() may
    // have just reset the budget while we waited.
    // order: relaxed -- the budget is reset only under snap_mu_ (held).
    if (epoch_budget_left_.load(std::memory_order_relaxed) <= 0) rotate_locked();
  }
}

EngineStats HhhEngine::stats() const {
  EngineStats s;
  // order: acquire -- pairs with merged()'s release add, and is read before
  // window_epochs_ (the table loop below): a scrape that sees a merge also
  // sees the rotation that sealed its window, so trend_sealed_merges <=
  // window_epochs holds.
  s.trend_sealed_merges = trend_sealed_merges_.load(std::memory_order_acquire);
  for (const Counter& c : kCounters) {
    // order: relaxed -- individually-consistent live counters; exactness
    // comes only from reading under quiesce or after stop(), where a lock
    // or join orders the writers. The archive trio is written by the
    // archiver thread and matches the on-disk state after stop().
    if (c.source == nullptr) continue;
    s.*c.field = (this->*c.source).load(std::memory_order_relaxed);
  }
  s.per_worker_consumed.reserve(workers_.size());
  for (const auto& ws : workers_) {
    // order: relaxed -- per-worker consumed counter (see above).
    const std::uint64_t c = ws->consumed.load(std::memory_order_relaxed);
    s.per_worker_consumed.push_back(c);
    s.consumed += c;
  }
  s.per_ring_dropped.reserve(lanes_.size());
  s.per_ring_pushed.reserve(lanes_.size());
  s.per_ring_popped.reserve(lanes_.size());
  for (const auto& l : lanes_) {
    // order: relaxed x3 -- per-lane counters (see above).
    s.per_ring_dropped.push_back(l->dropped.load(std::memory_order_relaxed));
    s.per_ring_pushed.push_back(l->pushed.load(std::memory_order_relaxed));
    s.per_ring_popped.push_back(l->popped.load(std::memory_order_relaxed));
    s.dropped += s.per_ring_dropped.back();
  }
  for (const auto& p : producers_) {
    s.offered += p->offered();
    // order: relaxed -- backpressure-retry counter (see above).
    s.backpressure_waits += p->backpressure_.load(std::memory_order_relaxed);
  }
  return s;
}

template <class Fn>
std::uint64_t HhhEngine::quiesced(Fn&& fn, std::uint32_t self,
                                  std::vector<Key128>* self_batch) {
  // order: relaxed -- epoch_req_ is only advanced under snap_mu_ (held by
  // every caller), so this read-modify-write cannot race another request.
  const std::uint64_t e = epoch_req_.load(std::memory_order_relaxed) + 1;
  // running_ cannot flip underneath us: start()/stop() take snap_mu_, which
  // the caller holds.
  // order: acquire -- pairs with start()'s release store; a live engine's
  // worker state is fully visible before we signal its workers.
  const bool live = running_.load(std::memory_order_acquire);
  if (live) {
    const std::uint64_t obs_t0 =
        obs_.quiesce_ns != nullptr ? obs::now_ns() : 0;
    // order: release -- pairs with the workers' acquire load in
    // worker_loop(): the boundary request publishes everything sequenced
    // before it alongside the new epoch number.
    epoch_req_.store(e, std::memory_order_release);
    if (self != kNoWorker) {
      // The caller IS worker `self` (a cooperative rotator): it cannot park
      // at its own boundary, so it performs its own boundary drain here and
      // self-acks below, then operates while the other workers wait. The
      // budget it rotates on is already spent, so this drain cannot cross
      // it again.
      (void)drain(self, *self_batch, /*backlog=*/true);
    }
    {
      std::unique_lock<std::mutex> lk(ctl_mu_);
      if (self != kNoWorker) workers_[self]->epoch_acked = e;
      ctl_cv_.wait(lk, [&] {
        return std::all_of(workers_.begin(), workers_.end(),
                           [&](const auto& ws) { return ws->epoch_acked >= e; });
      });
    }
    if (obs_.quiesce_ns != nullptr) {
      const std::uint64_t now = obs::now_ns();
      const std::uint64_t dur = now >= obs_t0 ? now - obs_t0 : 0;
      obs_.quiesce_ns->record(dur);
      obs_.trace->record(obs::TraceEvent::kQuiesce,
                         static_cast<std::int64_t>(now), e, dur);
    }
  } else {
    // No workers to quiesce (before start() or after stop()); the lattices
    // are only mutated by workers, so operating directly is safe. The
    // resume mark still has to advance with the request, or workers started
    // later would park at this epoch's boundary waiting for a resume that
    // already happened.
    // order: relaxed x2 -- no workers exist to synchronize with; a later
    // start() publishes these via thread creation.
    epoch_req_.store(e, std::memory_order_relaxed);
    epoch_resume_.store(e, std::memory_order_relaxed);
  }
  fn();
  if (live) {
    // Workers park inside ctl_cv_.wait, so everything fn() did to the shard
    // lattices happens-before their wakeup via this mutex hand-off.
    // order: relaxed -- written and read under ctl_mu_; the mutex is the
    // happens-before edge, not the atomic.
    std::lock_guard<std::mutex> lk(ctl_mu_);
    epoch_resume_.store(e, std::memory_order_relaxed);
    ctl_cv_.notify_all();
  }
  return e;
}

void HhhEngine::merge_shards(RhhhSpaceSaving& m,
                             const std::vector<const RhhhSpaceSaving*>& shards,
                             std::uint64_t drops) const {
  for (const RhhhSpaceSaving* shard : shards) m.merge(*shard);
  // A dropped record was still offered on the wire: fold the window's drops
  // into N so thresholds and slack terms see the full window, exactly like
  // DistributedMeasurement::stop() does.
  if (drops != 0) m.advance_stream(drops);
}

const std::shared_ptr<const RhhhSpaceSaving>& HhhEngine::merged(SealedWindow& w,
                                                                bool* built) {
  std::call_once(w.merge_once, [&] {
    // All shards rotate on one shared boundary, so every shard's slot
    // covers the same network-wide epoch. Seeded by the window's own epoch,
    // so the bytes never depend on who merged it or when.
    auto m = make_shard_lattice(kSealedSalt ^ w.epoch);
    merge_shards(*m, w.shards, w.drops);
    w.lattice = std::move(m);
    w.shards.clear();  // no reader needs the ring slots again
    // order: release -- pairs with stats()'s acquire load (see there).
    trend_sealed_merges_.fetch_add(1, std::memory_order_release);
    if (built != nullptr) *built = true;
  });
  return w.lattice;
}

void HhhEngine::rotate_locked(std::uint32_t self, std::vector<Key128>* self_batch,
                              std::uint64_t* self_acked) {
  const std::uint64_t obs_t0 = obs_.rotation_ns != nullptr ? obs::now_ns() : 0;
  // This rotation clears the oldest retained window's shard slots. If the
  // archiver still holds that window, build its merge first: a no-op when
  // the archiver already did, otherwise this waits for or runs the merge
  // -- the only merge a rotation ever runs, before the quiesce so the
  // workers keep ingesting (and before the drift clock starts, so a
  // boundary it delays counts as drift).
  if (sealed_.size() == cfg_.history_depth && sealed_.back()->archiving) {
    (void)merged(*sealed_.back());
  }
  // Drift metering: a budget-driven rotation measures rotation-start minus
  // the instant the budget was spent. The mark is read inside the quiesce,
  // just before the reset (see there). A manual rotation of a window whose
  // budget is not yet spent (no mark) records nothing.
  const std::int64_t rot_start_ns =
      std::chrono::steady_clock::now().time_since_epoch().count();
  std::int64_t mark = 0;
  std::uint64_t sealed_drop = 0;
  std::uint64_t duration_ns = 0;
  const std::int64_t wall_start_ns = win_started_wall_ns_;
  const std::int64_t wall_end_ns =
      std::chrono::system_clock::now().time_since_epoch().count();
  const std::uint64_t e = quiesced(
      [&] {
    for (auto& ws : workers_) ws->ring.rotate();
    // Drops since the last boundary happened while the just-sealed window
    // was live: attribute them to it, along with how long it was live (the
    // archive metadata).
    const std::uint64_t d = stats().dropped;
    sealed_drop = d - win_drops_base_;
    win_drops_base_ = d;
    const std::int64_t now_ns =
        std::chrono::steady_clock::now().time_since_epoch().count();
    // order: relaxed -- written only under snap_mu_ (held), stable here.
    const std::int64_t started =
        win_started_ns_.load(std::memory_order_relaxed);
    duration_ns =
        now_ns > started ? static_cast<std::uint64_t>(now_ns - started) : 0;
    // order: relaxed -- the worker whose decrement crossed zero CASes its
    // mark before it acks this boundary under ctl_mu_, and quiesced() took
    // ctl_mu_ to see every ack: that ctl_mu_ edge orders the mark before
    // this load. Any earlier read could miss the mark of a crossing worker
    // preempted between its decrement and its CAS (another worker may
    // rotate on the spent budget meanwhile), and the reset below would
    // wipe it: an uncounted budget rotation.
    mark = budget_spent_ns_.load(std::memory_order_relaxed);
    // Reset the whole budget state for the fresh window while every worker
    // is parked past its boundary drain (or IS this thread): no metering
    // decrement can race these stores, and the ctl_mu_ hand-off at resume
    // publishes them to the workers.
    // order: relaxed x3 -- the parked workers' resume (ctl_mu_) is the
    // happens-before edge; the watchdog's lock-free read of the mark
    // tolerates staleness by contract.
    win_started_ns_.store(now_ns, std::memory_order_relaxed);
    epoch_budget_left_.store(static_cast<std::int64_t>(cfg_.epoch_packets),
                             std::memory_order_relaxed);
    budget_spent_ns_.store(0, std::memory_order_relaxed);
      },
      self, self_batch);
  // A rotating worker must not re-park at the boundary it just drove.
  if (self_acked != nullptr) *self_acked = e;
  if (mark != 0) {
    const std::uint64_t drift =
        rot_start_ns > mark ? static_cast<std::uint64_t>(rot_start_ns - mark) : 0;
    // order: relaxed x3 -- drift statistics, written only under snap_mu_.
    budget_rotations_.fetch_add(1, std::memory_order_relaxed);
    drift_ns_total_.fetch_add(drift, std::memory_order_relaxed);
    if (drift > static_cast<std::uint64_t>(kLateRotationNs)) {
      late_rotations_.fetch_add(1, std::memory_order_relaxed);
    }
    if (obs_.rotation_drift_ns != nullptr) obs_.rotation_drift_ns->record(drift);
  }
  win_started_wall_ns_ = wall_end_ns;
  // order: release -- pairs with window_epochs()'s acquire load: a poller
  // that observes rotation N also observes the sealed shard windows.
  const std::uint64_t epoch = window_epochs_.fetch_add(1, std::memory_order_release) + 1;
  // The window's record is created after the bump, so any merge of it --
  // and its trend_sealed_merges_ count -- happens after the bump too. The
  // workers have resumed into the fresh window, but the just-sealed shard
  // windows stay immutable until their slots leave the ring, which takes
  // history_depth more rotations (each needs snap_mu_, held here).
  auto w = std::make_shared<SealedWindow>();
  w->epoch = epoch;
  w->drops = sealed_drop;
  w->duration_ns = duration_ns;
  w->wall_start_ns = wall_start_ns;
  w->wall_end_ns = wall_end_ns;
  w->shards.reserve(workers_.size());
  for (const auto& ws : workers_) w->shards.push_back(&ws->ring.sealed(0));
  sealed_.push_front(w);
  if (sealed_.size() > cfg_.history_depth) sealed_.pop_back();
  // Probing the sealed shard windows costs control-plane time only. It runs
  // before the hand-off: the archiver's merge clears w->shards.
  if (health_ != nullptr) {
    health_->stamp(obs::certify_window(w->shards, epoch, sealed_drop,
                                       static_cast<std::int64_t>(obs::now_ns())));
  }
  // The hand-off never blocks: the archiver merges and writes on its own.
  if (archive_ != nullptr) enqueue_archive(w);
  if (obs_.rotation_ns != nullptr) {
    const std::uint64_t now = obs::now_ns();
    const std::uint64_t rot_ns = now >= obs_t0 ? now - obs_t0 : 0;
    obs_.rotation_ns->record(rot_ns);
    obs_.trace->record(obs::TraceEvent::kRotate,
                       static_cast<std::int64_t>(now), epoch, rot_ns);
    obs_.trace->record(obs::TraceEvent::kSeal, static_cast<std::int64_t>(now),
                       epoch, duration_ns);
  }
}

void HhhEngine::rotate_epoch() {
  std::lock_guard<std::mutex> snap_lk(snap_mu_);
  rotate_locked();
}

TrendSnapshot HhhEngine::trend_snapshot() {
  std::lock_guard<std::mutex> snap_lk(snap_mu_);
  const std::uint64_t obs_t0 = obs_.trend_ns != nullptr ? obs::now_ns() : 0;
  // The live window: merged across shards under one quiesce, with the drops
  // counted since the last rotation folded into its N (older drops belong
  // to the sealed windows; the base is 0 until a rotation), and the ingest
  // counters frozen at the same instant. Its lattice is built (allocated
  // and zero-filled) before the pause, so the workers stay parked for the
  // merge alone; it is seeded by the quiesce generation that pause opens
  // (epoch_req_ advances only in quiesced(), under snap_mu_, held here).
  // order: relaxed -- epoch_req_ only changes under snap_mu_ (held).
  const std::uint64_t live_gen = epoch_req_.load(std::memory_order_relaxed) + 1;
  std::unique_ptr<RhhhSpaceSaving> live = make_shard_lattice(0x6e7a9000ULL ^ live_gen);
  EngineStats live_stats;
  std::uint64_t live_drops = 0;
  const std::uint64_t live_epoch = quiesced([&] {
    std::vector<const RhhhSpaceSaving*> shards;
    shards.reserve(workers_.size());
    for (const auto& ws : workers_) shards.push_back(&ws->ring.live());
    live_stats = stats();
    live_drops = live_stats.dropped - win_drops_base_;
    merge_shards(*live, shards, live_drops);
  });
  assert(live_epoch == live_gen);
  // The sealed merges run after the workers resumed: sealed shard windows
  // are immutable while retained (evicting one needs snap_mu_, held here),
  // so only the live-window merge needs the quiesce pause. Each sealed
  // window is merged once, by the first query or the archiver, so a poller
  // querying once per window pays at most one W-shard merge per epoch and
  // repeated polls between rotations pay the live merge only.
  std::vector<std::shared_ptr<const RhhhSpaceSaving>> sealed;
  std::vector<std::uint64_t> sealed_drops;
  sealed.reserve(sealed_.size());
  sealed_drops.reserve(sealed_.size());
  bool any_built = false;
  for (const auto& w : sealed_) {
    sealed.push_back(merged(*w, &any_built));
    sealed_drops.push_back(w->drops);
  }
  if (!sealed_.empty() && !any_built) {
    // order: relaxed -- cache-hit counter, diagnostic only.
    trend_cache_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  // order: relaxed -- stable under snap_mu_ (held).
  const std::uint64_t we = window_epochs_.load(std::memory_order_relaxed);
  if (obs_.trend_ns != nullptr) {
    const std::uint64_t now = obs::now_ns();
    const std::uint64_t dur = now >= obs_t0 ? now - obs_t0 : 0;
    obs_.trend_ns->record(dur);
    obs_.trace->record(obs::TraceEvent::kSnapshot, static_cast<std::int64_t>(now),
                       live_epoch, dur);
  }
  return TrendSnapshot(std::move(live), std::move(sealed), std::move(sealed_drops),
                       std::move(live_stats), we, live_drops);
}

std::unique_ptr<HhhEngine> make_engine(const EngineConfig& cfg) {
  return std::make_unique<HhhEngine>(cfg);
}

}  // namespace rhhh
