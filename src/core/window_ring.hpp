// Epoch-window rotation primitives shared by the single-threaded
// WindowedHhhMonitor (core/windowed.hpp) and the sharded engine's
// trend_snapshot() (engine/engine.hpp): a ring of one live plus K sealed
// same-configuration HHH instances that rotates at epoch boundaries, plus
// the change-detection queries over those windows -- the two-epoch
// emerging comparison and the K-epoch trend / sustained-growth queries.
//
// The paper's algorithms are interval-oblivious; rotating a ring of
// instances is the standard deployment pattern for change detection over
// mergeable summaries (the DDoS motivation of Section 1; cf. the
// mergeable-summaries line of work, Agarwal et al.). Keeping the rotation
// and the growth math in one place means the monitor and the multi-core
// engine report identical "emerging" and "sustained" semantics.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "hhh/lattice_hhh.hpp"

namespace rhhh {

/// A prefix that is heavy now and grew (or appeared) since the last epoch.
struct EmergingPrefix {
  HhhCandidate now;       ///< the candidate in the current epoch
  double previous_share;  ///< its share in the previous epoch (0 if absent)
  double share_now;       ///< estimated share in the current epoch
  /// Share growth vs the previous epoch; a prefix with no previous-epoch
  /// mass is explicitly infinite growth (it is brand new), never a huge
  /// finite ratio against a denominator sentinel.
  [[nodiscard]] double growth() const noexcept {
    return previous_share <= 0.0 ? std::numeric_limits<double>::infinity()
                                 : share_now / previous_share;
  }
};

/// One epoch's view of a prefix inside a trend query.
struct TrendPoint {
  std::uint64_t stream_length = 0;  ///< packets this window observed
  double estimate = 0.0;            ///< f-hat for the prefix in this window
  double share = 0.0;               ///< estimate / stream_length (0 if empty)
};

/// A prefix that is heavy now and has stayed above its EWMA baseline for a
/// whole run of consecutive epochs -- the sustained-ramp alarm that a
/// one-epoch blip cannot trip.
struct SustainedPrefix {
  HhhCandidate now;            ///< the candidate in the current epoch
  double baseline_share = 0.0; ///< EWMA share over the pre-run epochs
  double share_now = 0.0;      ///< estimated share in the current epoch
  double min_run_share = 0.0;  ///< smallest share across the sustained run
  /// The persistence bar this alarm cleared: the `min_epochs` the query was
  /// asked to verify (NOT the full length of the ramp, which may be longer).
  std::uint32_t run_epochs = 0;
  /// Growth of the current share vs the EWMA baseline; infinite when the
  /// baseline epochs carried no mass (the aggregate is brand new).
  [[nodiscard]] double growth() const noexcept {
    return baseline_share <= 0.0 ? std::numeric_limits<double>::infinity()
                                 : share_now / baseline_share;
  }
};

/// A ring of one live window plus up to K sealed windows. The ring starts
/// with zero completed epochs: sealed windows only exist after rotations,
/// so "no previous epoch" stays distinguishable from "an empty previous
/// epoch". Depth 1 reproduces the original live/sealed pair behavior
/// exactly (same instances, same clear points).
template <class Alg>
class WindowRing {
 public:
  WindowRing() = default;

  /// Takes ownership of `slots` (depth + 1 same-configuration instances,
  /// all non-null). Slot 0 starts live; rotation advances through slots in
  /// index order, so deterministic constructions stay reproducible.
  explicit WindowRing(std::vector<std::unique_ptr<Alg>> slots)
      : slots_(std::move(slots)) {}

  /// Builds depth + 1 instances via `make(slot_index)`.
  template <class Factory>
  WindowRing(std::size_t depth, Factory&& make) {
    slots_.reserve(depth + 1);
    for (std::size_t s = 0; s <= depth; ++s) slots_.push_back(make(s));
  }

  /// Seal the live window and start a fresh one: the live instance becomes
  /// the newest sealed window and the oldest slot is cleared for reuse.
  /// O(counters) for the clear, no allocation.
  void rotate() {
    live_ = (live_ + 1) % slots_.size();
    slots_[live_]->clear();
    ++epochs_;
  }

  /// K: how many sealed windows the ring can hold.
  [[nodiscard]] std::size_t depth() const noexcept { return slots_.size() - 1; }
  /// Sealed windows currently populated: min(epochs_completed, depth).
  [[nodiscard]] std::size_t sealed_count() const noexcept {
    return epochs_ < depth() ? static_cast<std::size_t>(epochs_) : depth();
  }

  /// The live window instance. This is also the ring's batched ingest entry
  /// point: feed whole record batches through live().update_batch(...)
  /// (byte-identical to per-record update() calls by LatticeHhh's
  /// contract); callers owning a rotation budget -- the windowed
  /// monitor, the engine workers -- split batches at their own epoch
  /// boundaries before the call.
  [[nodiscard]] Alg& live() noexcept { return *slots_[live_]; }
  [[nodiscard]] const Alg& live() const noexcept { return *slots_[live_]; }

  /// Sealed window by age: sealed(0) is the most recently sealed epoch,
  /// sealed(sealed_count() - 1) the oldest retained one.
  [[nodiscard]] Alg& sealed(std::size_t age) noexcept {
    return *slots_[slot_of_sealed(age)];
  }
  [[nodiscard]] const Alg& sealed(std::size_t age) const noexcept {
    return *slots_[slot_of_sealed(age)];
  }
  /// The most recently sealed window, or nullptr before the first rotation.
  [[nodiscard]] const Alg* sealed_or_null() const noexcept {
    return epochs_ == 0 ? nullptr : &sealed(0);
  }

  /// Completed (sealed) epochs so far -- counts all rotations, not just the
  /// windows still retained in the ring.
  [[nodiscard]] std::uint64_t epochs_completed() const noexcept { return epochs_; }

  /// The populated windows ordered oldest sealed -> ... -> newest sealed ->
  /// live (always ends with the live window).
  [[nodiscard]] std::vector<const Alg*> windows_oldest_first() const {
    std::vector<const Alg*> out;
    const std::size_t m = sealed_count();
    out.reserve(m + 1);
    for (std::size_t age = m; age-- > 0;) out.push_back(&sealed(age));
    out.push_back(&live());
    return out;
  }

 private:
  [[nodiscard]] std::size_t slot_of_sealed(std::size_t age) const noexcept {
    const std::size_t n = slots_.size();
    return (live_ + n - 1 - age) % n;
  }

  std::vector<std::unique_ptr<Alg>> slots_;
  std::size_t live_ = 0;
  std::uint64_t epochs_ = 0;
};

/// Prefixes that are HHH in `now` (at threshold theta) and whose share of
/// the stream grew by >= growth_factor since `before` (nullptr or an empty
/// instance: every current HHH is emerging with infinite growth). The
/// previous epoch is probed through LatticeHhh::estimate -- a direct
/// per-prefix upper bound -- not through its HHH set, so an aggregate that
/// was heavy before but conditioned out of the previous set still gets its
/// true previous share. Shares are estimates relative to each epoch's own
/// stream length; previous shares are upper bounds (growth is understated,
/// the conservative direction for alarms).
[[nodiscard]] std::vector<EmergingPrefix> emerging_from(const LatticeHhh& now,
                                                        const LatticeHhh* before,
                                                        double theta,
                                                        double growth_factor);

/// The prefix's share curve across `windows` (ordered oldest -> newest, the
/// last entry being the live window; entries must be non-null). Each point
/// probes that window's per-prefix estimate, so off-HHH-set aggregates are
/// tracked too. Returned in the same oldest -> newest order.
[[nodiscard]] std::vector<TrendPoint> trend_of(
    const std::vector<const LatticeHhh*>& windows, const Prefix& p);

/// Sustained-growth detection over a window ring (ordered oldest -> newest,
/// live window last): prefixes that are HHH in the live window (threshold
/// theta) AND whose share has stayed >= growth_factor times an EWMA
/// baseline for `min_epochs` consecutive windows ending at the live one.
/// The baseline is the exponentially weighted moving average (smoothing
/// `alpha`, weight of the newer epoch) of the prefix's share over the
/// windows *preceding* the run, so a stable heavy hitter never alarms and a
/// single-epoch blip fails the persistence requirement. A prefix with a
/// zero baseline (brand new) alarms iff it carried mass in every run
/// window. Returns empty when fewer than min_epochs + 1 windows exist (not
/// enough history to tell a blip from a ramp -- the conservative
/// direction). min_epochs must be >= 1 (throws std::invalid_argument), and
/// alpha must be in (0, 1].
[[nodiscard]] std::vector<SustainedPrefix> emerging_sustained_from(
    const std::vector<const LatticeHhh*>& windows, double theta,
    double growth_factor, std::uint32_t min_epochs, double alpha = 0.5);

}  // namespace rhhh
