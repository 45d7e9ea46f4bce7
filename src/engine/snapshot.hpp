// TrendSnapshot: the result of HhhEngine::trend_snapshot(), the engine's
// one network-wide query, taken by quiescing the shards at a cut.
//
// It holds the current (live, partial) window merged across every shard,
// plus every retained sealed window merged index-aligned (all shards
// rotate at the same cuts, so sealed(i) of every shard covers the same
// epoch) into one lattice per epoch, each window's drops folded into
// its stream length -- the multi-switch collector of paper Section 7
// applied per window. On an engine that never rotated there are no sealed
// windows and current() is the lifetime view; with history_depth = 1,
// current()/window(0)/emerging() are the WindowedHhhMonitor's
// current/previous/emerging pair; deeper histories add the monitor's
// k-epoch trend() growth curves and emerging_sustained() EWMA alarms.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/window_ring.hpp"
#include "hhh/lattice_hhh.hpp"

namespace rhhh {

/// Ingest accounting, frozen per snapshot (and exposed live by the engine).
struct EngineStats {
  std::uint64_t offered = 0;    ///< packets handed to any producer handle
  std::uint64_t consumed = 0;   ///< packets applied to some shard lattice
  std::uint64_t dropped = 0;    ///< ring-full drops on the lossy offer() path
  std::uint64_t backpressure_waits = 0;  ///< full-ring retry rounds of push()
  std::uint64_t epochs = 0;     ///< quiesce generations (trend_snapshot calls)
  std::uint64_t window_epochs = 0;  ///< completed window rotations
  std::uint64_t archived_windows = 0;  ///< sealed windows persisted to the store
  /// Sealed windows lost because the archiver queue was full (publication
  /// never blocks on I/O; see ArchiveConfig::queue_windows).
  std::uint64_t archive_queue_drops = 0;
  std::uint64_t archive_errors = 0;  ///< archiver I/O failures (window skipped)
  /// trend_snapshot() calls that merged no sealed window (every retained
  /// one was already merged, by an earlier query or the archiver).
  std::uint64_t trend_cache_hits = 0;
  /// Sealed windows merged across shards, by queries or the archiver. Each
  /// window is merged at most once, so this never exceeds window_epochs; a
  /// poller that queries after every rotation, or an archiver that drops no
  /// window, keeps the two equal.
  std::uint64_t trend_sealed_merges = 0;
  /// Published windows whose cut a spent packet budget posted (manual
  /// rotate_epoch() cuts are excluded). Denominator for the drift mean.
  std::uint64_t budget_rotations = 0;
  /// Summed drift (ns) over budget_rotations: steady clock from a cut's
  /// posting to the start of the last shard's rotation at it -- how far
  /// the slowest worker lagged the producer.
  std::uint64_t rotation_drift_ns_total = 0;
  /// Budget rotations whose drift exceeded 200us (a scheduler quantum or
  /// worse).
  std::uint64_t late_rotations = 0;
  std::vector<std::uint64_t> per_worker_consumed;  ///< [worker]
  std::vector<std::uint64_t> per_ring_dropped;     ///< [producer * W + worker]
  std::vector<std::uint64_t> per_ring_pushed;      ///< [producer * W + worker]
  std::vector<std::uint64_t> per_ring_popped;      ///< [producer * W + worker]
};

/// The network-wide view produced by HhhEngine::trend_snapshot(): one
/// merged lattice per retained epoch (each shard ring's sealed windows
/// merged index-aligned) plus the live (partial) window, every window's
/// drops folded into its stream length. Sealed windows are indexed by age:
/// window 0 is the most recently sealed epoch. The sealed merges are
/// immutable and shared with the engine's sealed-window records and the
/// archiver: each sealed window is merged once, so a poll after a rotation
/// pays at most one new merge and repeated polls between rotations pay
/// only the live-window merge.
class TrendSnapshot {
 public:
  TrendSnapshot(std::unique_ptr<RhhhSpaceSaving> current,
                std::vector<std::shared_ptr<const RhhhSpaceSaving>> sealed,
                std::vector<std::uint64_t> sealed_drops, EngineStats stats,
                std::uint64_t window_epochs, std::uint64_t current_drops)
      : current_(std::move(current)),
        sealed_(std::move(sealed)),
        drops_(std::move(sealed_drops)),
        stats_(std::move(stats)),
        window_epochs_(window_epochs),
        current_drops_(current_drops) {}

  /// Sealed epochs retained in this snapshot (<= EngineConfig::history_depth).
  [[nodiscard]] std::size_t sealed_windows() const noexcept { return sealed_.size(); }

  /// Network-wide HHH set of the current (partial) window -- the lifetime
  /// answer on an engine that never rotated.
  [[nodiscard]] HhhSet current(double theta) const { return current_->output(theta); }
  /// Network-wide HHH set of the sealed window `age` epochs back (0 = the
  /// most recently sealed). Requires age < sealed_windows().
  [[nodiscard]] HhhSet window(std::size_t age, double theta) const {
    return sealed_[age]->output(theta);
  }

  /// The prefix's per-epoch share curve, ordered oldest retained epoch ->
  /// ... -> newest sealed epoch -> live window (sealed_windows() + 1
  /// points) -- WindowedHhhMonitor::trend at engine scale.
  [[nodiscard]] std::vector<TrendPoint> trend(const Prefix& p) const {
    return trend_of(ordered_windows(), p);
  }
  /// Two-window emerging comparison against the most recently sealed epoch
  /// (WindowedHhhMonitor::emerging semantics; before the first rotation
  /// every heavy prefix is new).
  [[nodiscard]] std::vector<EmergingPrefix> emerging(double theta,
                                                     double growth_factor) const {
    return emerging_from(*current_,
                         sealed_.empty() ? nullptr : sealed_.front().get(), theta,
                         growth_factor);
  }
  /// EWMA-baseline sustained-growth alarms over the whole retained history
  /// (see emerging_sustained_from in core/window_ring.hpp). Every window
  /// weighs one epoch in the baseline: packet-budget windows are
  /// equal-length by construction, and so are the windows of a caller
  /// that calls rotate_epoch() on a fixed timer.
  [[nodiscard]] std::vector<SustainedPrefix> emerging_sustained(
      double theta, double growth_factor, std::uint32_t min_epochs,
      double alpha = 0.5) const {
    return emerging_sustained_from(ordered_windows(), theta, growth_factor,
                                   min_epochs, alpha);
  }

  /// N of the current window (shard sub-streams + this window's drops).
  [[nodiscard]] std::uint64_t current_length() const {
    return current_->stream_length();
  }
  /// N of the sealed window `age` epochs back (its drops already folded in).
  [[nodiscard]] std::uint64_t window_length(std::size_t age) const {
    return sealed_[age]->stream_length();
  }
  /// Drops attributed to each window (already folded into the lengths).
  [[nodiscard]] std::uint64_t current_drops() const noexcept { return current_drops_; }
  [[nodiscard]] std::uint64_t window_drops(std::size_t age) const {
    return drops_[age];
  }

  [[nodiscard]] const RhhhSpaceSaving& current_algorithm() const noexcept {
    return *current_;
  }
  [[nodiscard]] const RhhhSpaceSaving& window_algorithm(std::size_t age) const {
    return *sealed_[age];
  }

  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }
  /// Completed window rotations when this snapshot was taken.
  [[nodiscard]] std::uint64_t window_epochs() const noexcept { return window_epochs_; }

 private:
  [[nodiscard]] std::vector<const LatticeHhh*> ordered_windows() const {
    std::vector<const LatticeHhh*> out;
    out.reserve(sealed_.size() + 1);
    for (std::size_t age = sealed_.size(); age-- > 0;) {
      out.push_back(sealed_[age].get());
    }
    out.push_back(current_.get());
    return out;
  }

  std::unique_ptr<RhhhSpaceSaving> current_;
  /// Merged sealed windows by age (0 = newest sealed epoch); shared with
  /// the engine and the archiver, immutable once merged.
  std::vector<std::shared_ptr<const RhhhSpaceSaving>> sealed_;
  std::vector<std::uint64_t> drops_;  ///< [age], parallel to sealed_
  EngineStats stats_;
  std::uint64_t window_epochs_;
  std::uint64_t current_drops_;
};

}  // namespace rhhh
