#include "engine/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_ring.hpp"
#include "store/archive.hpp"

namespace rhhh {

namespace {

/// Seed salt of every merged sealed window, xor'ed with the window's own
/// epoch: the merge's bytes do not depend on which reader builds it.
constexpr std::uint64_t kSealedSalt = 0x6e7ac000ULL;

std::int64_t steady_ns() noexcept { return static_cast<std::int64_t>(obs::now_ns()); }

std::int64_t wall_ns() noexcept {
  return std::chrono::system_clock::now().time_since_epoch().count();
}

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
     "trend_snapshot calls", &HhhEngine::queries_},
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
     "budget cuts published (the drift-metered subset)",
     &HhhEngine::budget_rotations_},
    {&EngineStats::rotation_drift_ns_total, "rotation_drift_ns_total", nullptr,
     nullptr, &HhhEngine::drift_ns_total_},
    {&EngineStats::late_rotations, "late_rotations", "rhhh_engine_late_rotations",
     "budget cuts whose last shard rotated later than 200us",
     &HhhEngine::late_rotations_},
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
    // order: relaxed -- monotonic counter; exact reads happen after stop()
    // (the joins), approximate reads tolerate staleness.
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
  while (left != 0) {
    // A push that would spend the budget stops where it is spent, so with
    // one producer budget cuts are exactly epoch_packets records apart.
    std::size_t quota = left;
    if (eng_->windowed()) {
      // order: relaxed -- a split hint only; commit_push() does the metering.
      const std::int64_t budget = eng_->epoch_budget_left_.load(std::memory_order_relaxed);
      if (budget > 0 && static_cast<std::uint64_t>(budget) < left) {
        quota = static_cast<std::size_t>(budget);
      }
    }
    const std::size_t sent = lane.ring.try_push_n(data, quota);
    if (sent != 0) {
      eng_->commit_push(lane, sent);
      data += sent;
      left -= sent;
      continue;
    }
    // The ring is full. Lossless only while workers are consuming; a
    // stopped engine turns kBlock into drop-tail rather than spinning forever.
    // order: acquire -- pairs with stop()'s acq_rel exchange of running_; a
    // producer that observes the stop must not keep spinning on a ring whose
    // consumer is being joined.
    if (eng_->cfg_.overflow == OverflowPolicy::kDropTail ||
        !eng_->running_.load(std::memory_order_acquire)) {
      // order: relaxed -- drop counter; summed exactly after stop() only.
      lane.dropped.fetch_add(left, std::memory_order_relaxed);
      break;
    }
    // order: relaxed -- backpressure-retry counter, diagnostic only.
    backpressure_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::yield();
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
    ws->marks.resize(cfg.producers);
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
  last_cut_.assign(n_lanes, 0);
  mark_.assign(n_lanes, 0);
  cut_ns_ = steady_ns();
  cut_wall_ns_ = wall_ns();
  // order: relaxed -- constructor runs single-threaded; thread creation in
  // start() (and handing out producer handles) is the happens-before edge.
  epoch_budget_left_.store(static_cast<std::int64_t>(cfg_.epoch_packets),
                           std::memory_order_relaxed);
  // The archiver inherits the engine's telemetry switch and registry unless
  // the archive config overrides them explicitly.
  if (!cfg_.telemetry) cfg_.archive.telemetry = false;
  if (cfg_.archive.metrics == nullptr) cfg_.archive.metrics = cfg_.metrics;
  bind_metrics();
  bind_health();
}

HhhEngine::~HhhEngine() {
  stop();
  // After stop(): no worker/archiver thread can touch obs_ anymore,
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
  obs_.copy_ns = &reg.histogram("rhhh_engine_snapshot_copy_ns",
                                "slowest shard's copy at a query's mark: its ingest pause (ns)");
  obs_.rotation_ns = &reg.histogram(
      "rhhh_engine_rotation_ns",
      "slowest shard's own rotation per cut: its ingest pause (ns)");
  obs_.rotation_drift_ns = &reg.histogram(
      "rhhh_engine_rotation_drift_ns",
      "cut posted to last shard rotation start (ns, budget cuts)");
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
    // order: relaxed x2 -- liveness probe and the stale-tolerant posting
    // instant of the oldest cut some shard has not rotated at; "overdue"
    // means a full watchdog period past its posting.
    if (running_.load(std::memory_order_relaxed)) {
      const std::int64_t mark = pending_cut_ns_.load(std::memory_order_relaxed);
      p.rotation_overdue = mark != 0 && steady_ns() > mark + period;
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
  // stopped engine's snapshot never overlaps freshly spawned workers.
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
  for (std::uint32_t w = 0; w < workers(); ++w) {
    workers_[w]->thread = std::thread([this, w] { worker_loop(w); });
  }
  if (archive_ != nullptr) {
    {
      std::lock_guard<std::mutex> lk(cut_mu_);
      cut_wall_ns_ = wall_ns();  // the archived window starts with the run
    }
    archive_quit_ = false;  // the previous archiver is joined
    archive_thread_ =
        std::thread([this, arch = archive_.get()] { archive_loop(arch); });
  }
  // Last: the watchdog observes a fully started engine from its first
  // sample (its sampler never touches snap_mu_, so starting it under the
  // lock is fine).
  if (watchdog_ != nullptr) watchdog_->start();
}

void HhhEngine::stop() {
  std::lock_guard<std::mutex> snap_lk(snap_mu_);
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
  for (auto& ws : workers_) {
    if (ws->thread.joinable()) ws->thread.join();
  }
  // A producer racing stop() can slip records (and cuts) in after a
  // worker's shutdown drain, and a worker may have quit at a cut another
  // shard had to publish first: from here (the only consumer now) rotate
  // every shard through every cut posted so far and drain the backlog, so
  // nothing pushed before stop() returns is unaccounted. Bounded by what
  // is visible now, so producers that keep pushing cannot hold stop() up.
  std::vector<Key128> batch(pop_batch_);
  // order: relaxed -- drain() loads each cut under cut_mu_.
  sweep(cuts_announced_.load(std::memory_order_relaxed), /*backlog=*/true, batch);
  // Nothing publishes from here on. The archiver never takes snap_mu_, so
  // it is joined under the lock like the workers: it writes every queued
  // window, sees the quit flag and exits. Then seal the segment so a cold
  // reader gets the footer-indexed fast path; a later start() opens a
  // fresh one.
  if (archive_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(arch_mu_);
      archive_quit_ = true;
    }
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
}

void HhhEngine::archive_loop(store::WindowArchive* arch) {
#ifdef __linux__
  // Background persistence yields the CPU to every foreground thread. Its
  // seal-time merge (5-8 ms on the end-to-end benchmark's wire10 workload,
  // 4 CPUs) otherwise holds a CPU the benchmark's window watcher shares:
  // the watcher's seal p50 read 3.0-4.1 ms against the engine's own
  // 0.7-0.8 ms. Watcher p50 per remedy: SCHED_IDLE 0.85-0.93 ms; archive
  // work deferred 10 ms 0.81-0.96 ms; nice 19 1.6-4.0 ms; a yield per node
  // in LatticeHhh::merge 1.8-2.1 ms; a 200 us timed queue wait 2.7-4.1 ms.
  // An idle CPU still runs it, and a thread waiting on its merge blocks.
  sched_param idle{};
  (void)pthread_setschedparam(pthread_self(), SCHED_IDLE, &idle);
#endif
  for (;;) {
    std::shared_ptr<SealedWindow> w;
    {
      std::unique_lock<std::mutex> lk(arch_mu_);
      arch_cv_.wait(lk, [&] { return !archive_q_.empty() || archive_quit_; });
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

bool HhhEngine::enqueue_archive(const std::shared_ptr<SealedWindow>& w) {
  {
    std::lock_guard<std::mutex> lk(arch_mu_);
    if (archive_q_.size() >= cfg_.archive.queue_windows) {
      // order: relaxed -- drop counter; the queue itself is under arch_mu_.
      archive_queue_drops_.fetch_add(1, std::memory_order_relaxed);
      if (obs_.trace != nullptr) {
        obs_.trace->record(obs::TraceEvent::kArchiveDrop,
                           static_cast<std::int64_t>(obs::now_ns()), w->epoch, 0);
      }
      return false;
    }
    archive_q_.push_back(w);
    if (obs_.archive_q_depth != nullptr) {
      obs_.archive_q_depth->set(static_cast<std::int64_t>(archive_q_.size()));
    }
  }
  arch_cv_.notify_one();
  return true;
}

void HhhEngine::commit_push(Lane& l, std::size_t n) {
  // order: seq_cst -- the producers' part of the announce/mark handshake
  // (post_cuts()); the records themselves were published by the ring.
  l.pushed.fetch_add(n, std::memory_order_seq_cst);
  if (!windowed()) return;
  // order: acq_rel -- release: the mark above reaches whoever acquires the
  // budget to post the cut it spends; acquire: this push sees the top-up of
  // the cut before it. The one push per window that takes the budget from
  // positive to spent posts the cut.
  const std::int64_t left = epoch_budget_left_.fetch_sub(
      static_cast<std::int64_t>(n), std::memory_order_acq_rel);
  if (left > 0 && left <= static_cast<std::int64_t>(n)) (void)post_cuts(CutAt::kBudget);
}

std::uint64_t HhhEngine::post_cuts(CutAt at) {
  std::lock_guard<std::mutex> lk(cut_mu_);
  std::uint64_t first = 0;
  for (;; at = CutAt::kBudget) {
    // order: acquire -- pairs with commit_push()'s acq_rel fetch_sub: the
    // pushed marks of every push the budget counted are visible below, so
    // a budget cut is never shorter than epoch_packets.
    if (at == CutAt::kBudget &&
        !(windowed() && epoch_budget_left_.load(std::memory_order_acquire) <= 0)) {
      break;
    }
    // Announce, then read the marks; drain() reads its marks, then the
    // announcement. With those accesses and the pushes all seq_cst, a
    // worker that misses the announcement read no mark later than the
    // loads below, so it never pops past a cut it does not know.
    // order: seq_cst -- the announce half of that handshake.
    const std::uint64_t epoch = cuts_announced_.fetch_add(1, std::memory_order_seq_cst) + 1;
    auto win = std::make_shared<SealedWindow>();
    win->cut.resize(lanes_.size());
    std::uint64_t len = 0;  // the closing window's pushed records
    std::uint64_t dropped = 0;
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      const Lane& l = *lanes_[i];
      // order: seq_cst -- the mark half of the handshake. A stopped engine
      // cuts at what its shards consumed instead (relaxed: the last
      // consumer was joined, or is this thread, under snap_mu_), never
      // below the previous cut.
      win->cut[i] = at == CutAt::kConsumed
                        ? std::max(l.popped.load(std::memory_order_relaxed), last_cut_[i])
                        : l.pushed.load(std::memory_order_seq_cst);
      len += win->cut[i] - last_cut_[i];
      // order: relaxed -- drop counter; attribution needs no ordering.
      dropped += l.dropped.load(std::memory_order_relaxed);
    }
    const std::int64_t now = steady_ns();
    const std::int64_t wall = wall_ns();
    win->epoch = epoch;
    win->drops = dropped - cut_drops_;
    win->duration_ns = now > cut_ns_ ? static_cast<std::uint64_t>(now - cut_ns_) : 0;
    win->wall_start_ns = cut_wall_ns_;
    win->wall_end_ns = wall;
    win->posted_ns = now;
    win->budget = at == CutAt::kBudget;
    win->shards.assign(workers(), nullptr);
    // order: relaxed x2 -- window_epochs_ moves under cut_mu_ (held); the
    // watchdog reads the mark lock-free and tolerates staleness.
    if (epoch == window_epochs_.load(std::memory_order_relaxed) + 1) {
      pending_cut_ns_.store(now, std::memory_order_relaxed);
    }
    cut_drops_ = dropped;
    cut_ns_ = now;
    cut_wall_ns_ = wall;
    last_cut_ = win->cut;
    windows_.push_back(std::move(win));
    if (first == 0) first = epoch;
    if (!windowed()) break;
    // The next window's budget counts from this cut: top it up by this
    // window's length.
    // order: acq_rel -- the release half publishes this cut to the push
    // that spends the topped-up budget; see commit_push().
    epoch_budget_left_.fetch_add(static_cast<std::int64_t>(len),
                                 std::memory_order_acq_rel);
  }
  return first;
}

std::size_t HhhEngine::drain(std::uint32_t w, std::vector<Key128>& batch, bool backlog) {
  WorkerState& ws = *workers_[w];
  // The marks first, the announcements second (see post_cuts()): popping up
  // to these marks never crosses a cut or snapshot mark not loaded.
  for (std::uint32_t p = 0; p < producers(); ++p) {
    // order: seq_cst -- the worker's mark half of the handshake.
    ws.marks[p] = lane(p, w).pushed.load(std::memory_order_seq_cst);
  }
  // order: seq_cst x2 -- the worker's announce half, for cuts and for marks.
  if ((ws.cut.empty() && cuts_announced_.load(std::memory_order_seq_cst) > ws.rotations) ||
      (ws.mark.empty() && queries_.load(std::memory_order_seq_cst) > ws.queries)) {
    // A poster holds cut_mu_ from its announcement until the cut (or the
    // mark) is in place, so the lock finds it. A mark loads once this shard
    // has rotated at every cut posted before it, with the cut after it.
    std::lock_guard<std::mutex> lk(cut_mu_);
    const auto column = [&](std::vector<std::uint64_t>& out, const auto& in) {
      out.resize(producers());
      for (std::uint32_t p = 0; p < producers(); ++p) out[p] = in[std::size_t{p} * workers() + w];
    };
    // order: relaxed x2 -- both move only under cut_mu_ (held).
    if (ws.cut.empty() && cuts_announced_.load(std::memory_order_relaxed) > ws.rotations) {
      column(ws.cut, windows_[ws.rotations + 1 - windows_.front()->epoch]->cut);
    }
    if (ws.mark.empty() && queries_.load(std::memory_order_relaxed) > ws.queries &&
        ws.rotations == mark_cuts_) {
      ws.queries += 1;  // one query at a time: it waits for every copy
      column(ws.mark, mark_);
    }
  }
  RhhhSpaceSaving& lattice = ws.ring.live();
  std::size_t total = 0;
  for (std::uint32_t p = 0; p < producers(); ++p) {
    Lane& l = lane(p, w);
    // order: relaxed -- this thread is the lane's only popper.
    const std::uint64_t popped = l.popped.load(std::memory_order_relaxed);
    // The cuts posted before the mark sit at or below it, the later ones
    // at or above it, so the nearest of the two bounds the pop.
    std::uint64_t end = ws.marks[p];
    if (!ws.cut.empty()) end = std::min(end, ws.cut[p]);
    if (!ws.mark.empty()) end = std::min(end, ws.mark[p]);
    std::uint64_t left = end - popped;
    if (!backlog) left = std::min<std::uint64_t>(left, batch.size());
    while (left != 0) {
      const std::size_t n = l.ring.try_pop_n(
          batch.data(), static_cast<std::size_t>(std::min<std::uint64_t>(batch.size(), left)));
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
      // came from the ring, and exact reads happen after stop() only.
      l.popped.fetch_add(n, std::memory_order_relaxed);
      ws.consumed.fetch_add(n, std::memory_order_relaxed);
      total += n;
      left -= n;
    }
  }
  return total;
}

bool HhhEngine::try_copy(std::uint32_t w) {
  WorkerState& ws = *workers_[w];
  if (ws.mark.empty()) return false;
  for (std::uint32_t p = 0; p < producers(); ++p) {
    // order: relaxed -- this thread is the lane's only popper.
    if (lane(p, w).popped.load(std::memory_order_relaxed) != ws.mark[p]) return false;
  }
  // The rosters LatticeHhh::merge would feed Space-Saving's merge.
  const std::int64_t t0 = steady_ns();
  const RhhhSpaceSaving& live = ws.ring.live();
  ws.entries.resize(live.H());
  ws.rosters.resize(live.H());
  for (std::uint32_t d = 0; d < live.H(); ++d) {
    ws.rosters[d] = live.instance(d).roster(ws.entries[d]);
  }
  ws.copy_n = live.stream_length();
  ws.copy_updates = live.updates_performed();
  const auto ns = static_cast<std::uint64_t>(steady_ns() - t0);
  ws.mark.clear();
  std::lock_guard<std::mutex> lk(cut_mu_);
  copy_ns_ = std::max(copy_ns_, ns);
  ++copied_;
  cut_cv_.notify_all();
  return true;
}

bool HhhEngine::try_rotate(std::uint32_t w) {
  WorkerState& ws = *workers_[w];
  if (ws.cut.empty()) return false;
  for (std::uint32_t p = 0; p < producers(); ++p) {
    // order: relaxed -- this thread is the lane's only popper.
    if (lane(p, w).popped.load(std::memory_order_relaxed) != ws.cut[p]) return false;
  }
  const std::uint64_t epoch = ws.rotations + 1;  // the window this rotation seals
  const std::uint64_t depth = cfg_.history_depth;
  // This rotation clears the slot of window epoch - depth, so that window
  // must be published (else this shard is depth windows ahead: retry).
  // order: acquire -- pairs with publish()'s release store.
  if (epoch > depth && window_epochs_.load(std::memory_order_acquire) < epoch - depth) {
    return false;
  }
  const std::int64_t t0 = steady_ns();
  std::shared_ptr<SealedWindow> reuse;  // a wanted window whose slot this clears
  {
    std::lock_guard<std::mutex> lk(cut_mu_);
    if (epoch > depth && windows_.front()->epoch == epoch - depth) {
      // Still retained: the first shard to reuse its slot evicts it. A
      // reader holding it gets its merge built (or waited for) first.
      if (windows_.front()->wanted) {
        reuse = windows_.front();
      } else {
        windows_.pop_front();
      }
    }
  }
  if (reuse != nullptr) {
    (void)merged(*reuse);
    std::lock_guard<std::mutex> lk(cut_mu_);
    if (windows_.front() == reuse) windows_.pop_front();
  }
  ws.ring.rotate();
  const std::int64_t t1 = steady_ns();
  std::shared_ptr<SealedWindow> last;
  {
    std::lock_guard<std::mutex> lk(cut_mu_);
    const std::shared_ptr<SealedWindow>& win = windows_[epoch - windows_.front()->epoch];
    win->shards[w] = &ws.ring.sealed(0);
    win->last_start_ns = std::max(win->last_start_ns, t0);
    win->pause_ns = std::max(win->pause_ns, static_cast<std::uint64_t>(t1 - t0));
    if (++win->rotated == workers()) last = win;
  }
  ws.rotations = epoch;
  ws.cut.clear();
  if (last != nullptr) publish(last);
  return true;
}

void HhhEngine::publish(const std::shared_ptr<SealedWindow>& w) {
  // Every shard has sealed the window and none can reuse its slots before
  // the window_epochs_ bump below, so the probe and the hand-off read them
  // safely. The archiver's merge clears w->shards: probe first.
  if (health_ != nullptr) {
    health_->stamp(obs::certify_window(w->shards, w->epoch, w->drops,
                                       static_cast<std::int64_t>(obs::now_ns())));
  }
  const bool queued = archive_ != nullptr && enqueue_archive(w);
  if (w->budget) {
    const std::uint64_t drift = w->last_start_ns > w->posted_ns
                                    ? static_cast<std::uint64_t>(w->last_start_ns - w->posted_ns)
                                    : 0;
    // order: relaxed x3 -- drift statistics; windows publish one at a time.
    budget_rotations_.fetch_add(1, std::memory_order_relaxed);
    drift_ns_total_.fetch_add(drift, std::memory_order_relaxed);
    if (drift > static_cast<std::uint64_t>(kLateRotationNs)) {
      late_rotations_.fetch_add(1, std::memory_order_relaxed);
    }
    if (obs_.rotation_drift_ns != nullptr) obs_.rotation_drift_ns->record(drift);
  }
  if (obs_.rotation_ns != nullptr) {
    const auto now = static_cast<std::int64_t>(obs::now_ns());
    obs_.rotation_ns->record(w->pause_ns);
    obs_.trace->record(obs::TraceEvent::kRotate, now, w->epoch, w->pause_ns);
    obs_.trace->record(obs::TraceEvent::kSeal, now, w->epoch, w->duration_ns);
  }
  {
    std::lock_guard<std::mutex> lk(cut_mu_);
    w->wanted = w->wanted || queued;  // a query may have wanted it already
    const std::size_t next = w->epoch + 1 - windows_.front()->epoch;
    // order: relaxed -- the watchdog's stale-tolerant mark.
    pending_cut_ns_.store(next < windows_.size() ? windows_[next]->posted_ns : 0,
                          std::memory_order_relaxed);
    // order: release -- pairs with window_epochs()'s and try_rotate()'s
    // acquire loads: whoever sees window N published sees its shards sealed.
    window_epochs_.store(w->epoch, std::memory_order_release);
  }
  cut_cv_.notify_all();
}

void HhhEngine::sweep(std::uint64_t target, bool backlog, std::vector<Key128>& batch) {
  for (bool progress = true; progress;) {
    progress = false;
    for (std::uint32_t w = 0; w < workers(); ++w) {
      while (workers_[w]->rotations < target) {
        (void)drain(w, batch, /*backlog=*/true);
        if (!try_rotate(w)) break;
        progress = true;
      }
    }
  }
  if (!backlog) return;
  for (std::uint32_t w = 0; w < workers(); ++w) (void)drain(w, batch, /*backlog=*/true);
}

void HhhEngine::worker_loop(std::uint32_t w) {
  std::vector<Key128> batch(pop_batch_);
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
    const std::size_t got = drain(w, batch, /*backlog=*/false);
    if (got != 0 && obs_.pop_ns != nullptr) {
      obs_.pop_ns->record_since(obs_t0);
      // Batching efficacy: how full each productive pass ran.
      obs_.batch_fill->record(got);
    }
    // At the snapshot mark on every lane: copy the live shard for the
    // query. At a cut on every lane: rotate this shard's ring, on this core.
    const bool copied = try_copy(w);
    const bool rotated = try_rotate(w);
    // order: acquire -- pairs with stop()'s acq_rel exchange; observing
    // the stop must also observe any record a producer pushed before it
    // observed the stop (the final drain below must not miss them).
    if (!running_.load(std::memory_order_acquire)) {
      // Shutdown: consume the backlog visible now, up to the pending cut,
      // then exit; stop()'s sweep rotates every shard through the cuts
      // left. Bounded by the observed size, so producers that keep the
      // rings busy cannot keep this worker (and stop()) running.
      (void)drain(w, batch, /*backlog=*/true);
      return;
    }
    if (got == 0 && !copied && !rotated) std::this_thread::yield();
  }
}

EngineStats HhhEngine::stats() const {
  EngineStats s;
  // order: acquire -- pairs with merged()'s release add, and is read before
  // window_epochs_ (the table loop below): a scrape that sees a merge also
  // sees the publication of its window, so trend_sealed_merges <=
  // window_epochs holds.
  s.trend_sealed_merges = trend_sealed_merges_.load(std::memory_order_acquire);
  for (const Counter& c : kCounters) {
    // order: relaxed -- individually-consistent live counters; exactness
    // comes only from reading after stop(), where the joins order the
    // writers. The archive trio is written by the archiver thread and
    // matches the on-disk state after stop().
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

const std::shared_ptr<const RhhhSpaceSaving>& HhhEngine::merged(SealedWindow& w,
                                                                bool* built) {
  std::call_once(w.merge_once, [&] {
    // Every shard rotated at the same cut, so every shard's slot covers
    // the same network-wide window. Seeded by the window's own epoch, so
    // the bytes never depend on who merged it or when.
    auto m = make_shard_lattice(kSealedSalt ^ w.epoch);
    for (const RhhhSpaceSaving* shard : w.shards) m->merge(*shard);
    if (w.drops != 0) m->advance_stream(w.drops);  // as in trend_snapshot()
    w.lattice = std::move(m);
    w.shards.clear();  // no reader needs the ring slots again
    // order: release -- pairs with stats()'s acquire load (see there).
    trend_sealed_merges_.fetch_add(1, std::memory_order_release);
    if (built != nullptr) *built = true;
  });
  return w.lattice;
}

void HhhEngine::rotate_epoch() {
  std::lock_guard<std::mutex> snap_lk(snap_mu_);
  // order: relaxed -- running_ only changes under snap_mu_ (held).
  if (running_.load(std::memory_order_relaxed)) {
    // The workers rotate at the cut as they reach it; wait for the last.
    const std::uint64_t epoch = post_cuts(CutAt::kPushed);
    std::unique_lock<std::mutex> lk(cut_mu_);
    cut_cv_.wait(lk, [&] {
      // order: relaxed -- stored under cut_mu_ (held while checked).
      return window_epochs_.load(std::memory_order_relaxed) >= epoch;
    });
    return;
  }
  // Stopped: no consumer runs, so this thread rotates every shard at a cut
  // on what it has consumed (what waits in the rings goes to the next
  // window).
  std::vector<Key128> batch(pop_batch_);
  sweep(post_cuts(CutAt::kConsumed), /*backlog=*/false, batch);
}

TrendSnapshot HhhEngine::trend_snapshot() {
  std::lock_guard<std::mutex> snap_lk(snap_mu_);
  const std::uint64_t obs_t0 = obs_.trend_ns != nullptr ? obs::now_ns() : 0;
  // order: acquire -- pairs with start()'s release store (running_ only flips
  // under snap_mu_, held): worker state is visible before we post a mark.
  const bool running = running_.load(std::memory_order_acquire);
  // The live window runs from the newest cut to the mark posted here (on a
  // stopped engine, from the newest published cut to what the shards
  // consumed). The retained windows end at that cut, published or not:
  // marking them wanted keeps their slots until their merges are built.
  EngineStats live_stats;
  std::uint64_t we = 0;
  std::uint64_t drops_base = 0;  // the drops of every window up to we
  std::vector<std::shared_ptr<SealedWindow>> retained;  // newest first
  {
    std::lock_guard<std::mutex> lk(cut_mu_);
    // order: seq_cst -- the announce half of post_cuts()' handshake, read
    // before the marks: no worker pops past a mark it has not loaded.
    queries_.fetch_add(1, std::memory_order_seq_cst);
    live_stats = stats();  // the counters as the mark is posted
    // order: relaxed x2 -- both move only under cut_mu_ (held).
    we = running ? cuts_announced_.load(std::memory_order_relaxed)
                 : window_epochs_.load(std::memory_order_relaxed);
    if (running) {
      for (std::size_t i = 0; i < lanes_.size(); ++i) {
        // order: seq_cst -- the mark half of the handshake.
        mark_[i] = lanes_[i]->pushed.load(std::memory_order_seq_cst);
      }
      mark_cuts_ = we;
      copied_ = 0;
      copy_ns_ = 0;
    } else {
      // No worker runs, so none copies: the query posts no mark.
      for (const auto& ws : workers_) ws->queries = live_stats.epochs;
    }
    drops_base = cut_drops_;
    for (auto it = windows_.rbegin(); it != windows_.rend(); ++it) {
      if ((*it)->epoch > we) {  // not rotated at by every shard yet
        drops_base -= (*it)->drops;
        continue;
      }
      if ((*it)->epoch + cfg_.history_depth <= we) break;  // evicted by then
      (*it)->wanted = true;
      retained.push_back(*it);
    }
  }
  const std::uint64_t e = live_stats.epochs;
  const std::uint64_t live_drops = live_stats.dropped - drops_base;
  // Seeded by the query's number (queries_ only advances here).
  std::unique_ptr<RhhhSpaceSaving> live = make_shard_lattice(0x6e7a9000ULL ^ e);
  if (running) {
    std::unique_lock<std::mutex> lk(cut_mu_);
    cut_cv_.wait(lk, [&] { return copied_ == workers(); });
    lk.unlock();
    // Every shard popped exactly to the mark.
    live_stats.per_ring_pushed = mark_;
    live_stats.per_ring_popped = mark_;
    live_stats.consumed = 0;
    for (std::uint32_t w = 0; w < workers(); ++w) {
      const WorkerState& ws = *workers_[w];
      std::uint64_t& consumed = live_stats.per_worker_consumed[w] = 0;
      for (std::uint32_t p = 0; p < producers(); ++p) consumed += mark_[p * workers_.size() + w];
      live_stats.consumed += consumed;
      // Byte for byte what LatticeHhh::merge does with the shard itself.
      for (std::uint32_t d = 0; d < live->H(); ++d) live->merge_node(d, ws.rosters[d]);
      live->restore_stream(live->stream_length() + ws.copy_n,
                           live->updates_performed() + ws.copy_updates);
    }
    if (obs_.copy_ns != nullptr) {
      obs_.copy_ns->record(copy_ns_);
      obs_.trace->record(obs::TraceEvent::kCopy, static_cast<std::int64_t>(obs::now_ns()), e,
                         copy_ns_);
    }
  } else {
    for (const auto& ws : workers_) live->merge(ws->ring.live());
  }
  // A dropped record was still offered on the wire: fold the window's drops
  // into N so thresholds and slack terms see the full window.
  if (live_drops != 0) live->advance_stream(live_drops);
  // A shard reusing a retained window's slot first waits for (or runs) its
  // merge. Each sealed window is merged once, by the first query, the
  // archiver or that shard, so a poller querying once per window pays at
  // most one W-shard merge per epoch and repeated polls between cuts pay
  // the live merge only.
  std::vector<std::shared_ptr<const RhhhSpaceSaving>> sealed;
  std::vector<std::uint64_t> sealed_drops;
  sealed.reserve(retained.size());
  sealed_drops.reserve(retained.size());
  bool any_built = false;
  for (const auto& w : retained) {
    sealed.push_back(merged(*w, &any_built));
    sealed_drops.push_back(w->drops);
  }
  if (!retained.empty() && !any_built) {
    // order: relaxed -- cache-hit counter, diagnostic only.
    trend_cache_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  if (obs_.trend_ns != nullptr) {
    const std::uint64_t now = obs::now_ns();
    const std::uint64_t dur = now >= obs_t0 ? now - obs_t0 : 0;
    obs_.trend_ns->record(dur);
    obs_.trace->record(obs::TraceEvent::kSnapshot, static_cast<std::int64_t>(now), e, dur);
  }
  return TrendSnapshot(std::move(live), std::move(sealed), std::move(sealed_drops),
                       std::move(live_stats), we, live_drops);
}

std::unique_ptr<HhhEngine> make_engine(const EngineConfig& cfg) {
  return std::make_unique<HhhEngine>(cfg);
}

}  // namespace rhhh
