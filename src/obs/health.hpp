// Estimator health layer: live accuracy certificates and a stall watchdog.
//
// PR 7 made the *system* observable; this makes the *estimator* observable.
// Three pieces:
//
//   * certify_window() folds the per-node BackendProbe snapshots of one or
//     more same-configuration lattice shards (index-aligned, like
//     TrendSnapshot's merge) into an AccuracyCertificate: an empirical
//     additive-error upper bound recomputed from what the summaries actually
//     hold (max node min-count / N), the Theorem 6.11/6.15 sampling slack at
//     the drop-folded cross-shard N, and structure-health aggregates
//     (roster occupancy, eviction churn, worst roster fill).
//   * HealthLedger keeps the last K certificates, mirrors the newest one
//     into lock-free atomics exported as the rhhh_health_* gauge families,
//     and renders the /health JSON body the exporter serves.
//   * StallWatchdog samples engine progress (via an engine-provided
//     lock-free sampler) on its own thread; when consumed counters stop
//     advancing while rings hold backlog, or a posted cut stays unrotated
//     for a period, it records kStall trace events and writes a flight-recorder
//     dump (TraceRing contents + last K certificates + EngineStats JSON) to
//     a configurable path for postmortems.
//
// src/obs/ is not a hot-path-lint directory (mutex/thread are fine here);
// nothing under src/core|hh|hhh|util includes this file.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "hh/backend.hpp"
#include "hhh/lattice_hhh.hpp"

namespace rhhh::obs {

class MetricsRegistry;
class TraceRing;

/// Per-window accuracy certificate: the estimator's self-reported error
/// bound for one sealed window, checkable online from summary state alone.
/// The certified additive bound on any estimate's error is
/// (eps_empirical + sampling_slack) * stream_length.
struct AccuracyCertificate {
  std::uint64_t epoch = 0;          ///< sealed window epoch this certifies
  std::int64_t stamped_ns = 0;      ///< steady-clock stamp time
  std::uint64_t stream_length = 0;  ///< drop-folded N (consumed + dropped)
  std::uint64_t drops = 0;          ///< records dropped at the window's rings
  std::uint64_t updates = 0;        ///< counter increments performed
  std::uint64_t evictions = 0;      ///< summed Space-Saving roster evictions
  double eps_configured = 0.0;      ///< the construction-time eps_a target
  double eps_empirical = 0.0;       ///< max_d (scale * min-count_d) / N
  double sampling_slack = 0.0;      ///< 2 Z sqrt(N V) / N (0 for MST)
  double occupancy = 0.0;           ///< mean roster fill across nodes
  double max_saturation = 0.0;      ///< worst node fill (1.0 = roster full)
  bool converged = false;           ///< N cleared psi (Theorem 6.17)
};

/// Fold probes from same-configuration lattice shards observing disjoint
/// streams into one certificate (the cross-shard view a merge would have):
/// node min-counts add across shards, N is the drop-folded sum. A single
/// shard is the trivial fold. `shards` must be non-empty and index-aligned.
[[nodiscard]] AccuracyCertificate certify_window(
    const std::vector<const RhhhSpaceSaving*>& shards, std::uint64_t epoch,
    std::uint64_t drops, std::int64_t stamped_ns);

/// One certificate as a JSON object.
[[nodiscard]] std::string certificate_json(const AccuracyCertificate& c);

/// Thread-safe last-K certificate ring. When a registry is supplied, the
/// constructor registers the rhhh_health_* gauge_fn families (sampling only
/// this ledger's atomics, so scrapes stay lock-free) and the destructor
/// unregisters them -- the ledger must outlive no registry it binds to.
class HealthLedger {
 public:
  explicit HealthLedger(MetricsRegistry* reg, std::size_t keep = 16);
  ~HealthLedger();

  HealthLedger(const HealthLedger&) = delete;
  HealthLedger& operator=(const HealthLedger&) = delete;

  void stamp(const AccuracyCertificate& c);

  /// Retained certificates, newest first.
  [[nodiscard]] std::vector<AccuracyCertificate> recent() const;
  /// Certificates ever stamped (monotone; may exceed the retained K).
  [[nodiscard]] std::uint64_t stamped() const noexcept {
    // order: relaxed -- a statistic; no payload is read through it.
    return stamped_.load(std::memory_order_relaxed);
  }

  /// The /health endpoint body: {"stamped":n,"certificates":[newest,...]}.
  [[nodiscard]] std::string render_json() const;

 private:
  MetricsRegistry* reg_;
  std::size_t keep_;
  std::vector<std::string> owned_;  ///< gauge_fn names to unregister

  mutable std::mutex mu_;
  std::deque<AccuracyCertificate> ring_;  ///< newest at the front

  // Lock-free mirror of the newest certificate for gauge_fn samplers.
  std::atomic<std::uint64_t> stamped_{0};
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> n_{0};
  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<double> eps_emp_{0.0};
  std::atomic<double> eps_cfg_{0.0};
  std::atomic<double> slack_{0.0};
  std::atomic<double> occupancy_{0.0};
  std::atomic<double> saturation_{0.0};
  std::atomic<bool> converged_{false};
};

/// Background progress watchdog. The engine hands it a lock-free Progress
/// sampler plus a stats serializer; the watchdog owns the detection policy:
/// a period with no consumed progress while backlog sits in the rings, or a
/// sampler-reported overdue rotation, counts as a stalled period. The first
/// stalled period of an episode writes the flight recorder; progress
/// re-arms it.
class StallWatchdog {
 public:
  struct Config {
    std::uint64_t period_ns = 100'000'000;  ///< sampling period (100 ms)
    std::string dump_path;  ///< flight-recorder file; empty = memory only
  };
  /// One lock-free sample of engine progress.
  struct Progress {
    std::uint64_t consumed = 0;       ///< records applied to lattices, total
    std::uint64_t backlog = 0;        ///< records visible in the rings
    std::uint64_t window_epochs = 0;  ///< completed rotations
    bool rotation_overdue = false;    ///< a cut unrotated a period after posting
  };
  using Sampler = std::function<Progress()>;
  using StatsJson = std::function<std::string()>;

  /// `ledger` and `trace` are optional (null = that section of the dump is
  /// empty); `reg` (optional) gets the stall counters as gauge_fns.
  StallWatchdog(Config cfg, Sampler sampler, StatsJson stats_json,
                const HealthLedger* ledger, TraceRing* trace,
                MetricsRegistry* reg);
  ~StallWatchdog();

  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

  /// Spawn the sampling thread. No-op when already running.
  void start();
  /// Stop and join. Idempotent.
  void stop();

  /// Stalled periods observed (every period inside an episode counts).
  [[nodiscard]] std::uint64_t stalls() const noexcept {
    // order: acquire -- pairs with the loop's release increment: a reader
    // that sees a stalled period also sees that episode's dump stored.
    return stalls_.load(std::memory_order_acquire);
  }
  /// Distinct stall episodes (each wrote one flight-recorder dump).
  [[nodiscard]] std::uint64_t stall_episodes() const noexcept {
    // order: acquire -- pairs with the loop's release increment; the
    // episode's flight recorder is visible once it is countable.
    return episodes_.load(std::memory_order_acquire);
  }
  /// The last episode's flight-recorder JSON ("" before any episode).
  [[nodiscard]] std::string last_dump() const;

  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

 private:
  void loop();
  void on_stall(const Progress& p, const char* reason, std::int64_t detected_ns);

  Config cfg_;
  Sampler sampler_;
  StatsJson stats_json_;
  const HealthLedger* ledger_;
  TraceRing* trace_;
  MetricsRegistry* reg_;
  std::vector<std::string> owned_;

  mutable std::mutex mu_;  ///< guards cv_ waits and last_dump_
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::string last_dump_;
  std::thread thread_;

  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> episodes_{0};
};

}  // namespace rhhh::obs
