// WindowedHhhMonitor: epoch-rotating HHH monitoring with change detection.
//
// Anomaly detection (the paper's DDoS motivation, Section 1) needs *change*,
// not lifetime totals: a /16 that always carries 10% of traffic is
// backbone weather; one that jumps from 0.5% to 10% inside an epoch is an
// event. This monitor keeps a ring of same-configuration HHH instances --
// the live epoch plus up to `history_depth` sealed epochs
// (core/window_ring.hpp) -- rotates every `epoch_packets` updates, and
// answers three change queries:
//
//   * emerging()           -- prefixes heavy now whose share grew by at
//                             least `growth_factor` vs the last epoch.
//   * trend(prefix)        -- the prefix's per-epoch share curve across the
//                             retained windows (k-epoch growth curves).
//   * emerging_sustained() -- prefixes heavy now whose share stayed above
//                             an EWMA baseline for `min_epochs` consecutive
//                             epochs: a sustained ramp alarms, a one-epoch
//                             blip does not.
//
// For the same semantics at multi-core scale, see the engine's windowed
// query (engine/engine.hpp, rotate_epoch / trend_snapshot).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/monitor.hpp"
#include "core/window_ring.hpp"

namespace rhhh {

class WindowedHhhMonitor {
 public:
  /// `epoch_packets` updates per epoch; the ring retains `history_depth`
  /// sealed epochs (>= 1; 1 reproduces the classic live/previous pair).
  /// The config's eps should be chosen so that psi fits inside one epoch
  /// (psi <= epoch_packets), otherwise early-epoch queries over-report;
  /// query `converged_epoch()` to check.
  WindowedHhhMonitor(MonitorConfig cfg, std::uint64_t epoch_packets,
                     std::size_t history_depth = 1);

  void update(const PacketRecord& p);
  void update(Ipv4 src, Ipv4 dst);
  /// Direct fully-specified-key ingest (the engine producers' currency);
  /// lets one key stream drive the monitor and the engine identically.
  void update(Key128 key);
  /// Batched ingest: equivalent to n update(keys[i]) calls, byte for byte.
  /// Batches are split internally at epoch boundaries, so a rotation lands
  /// on exactly the same packet as the per-packet path -- batch sizing
  /// never shifts a window edge. Feeds WindowRing::live() through
  /// LatticeHhh::update_batch (the staged pipeline).
  void update_batch(const Key128* keys, std::size_t n);

  /// HHH set of the current (partial) epoch.
  [[nodiscard]] HhhSet current(double theta) const;
  /// HHH set of the last completed epoch; empty before the first rotation.
  [[nodiscard]] HhhSet previous(double theta) const;

  /// Prefixes that are HHH now and grew by >= growth_factor vs the previous
  /// epoch (new prefixes count as infinite growth). Shares are estimates
  /// relative to each epoch's packet count.
  [[nodiscard]] std::vector<EmergingPrefix> emerging(double theta,
                                                     double growth_factor) const;

  /// The prefix's share across every retained window, ordered oldest sealed
  /// epoch -> ... -> newest sealed epoch -> live (partial) epoch. Size is
  /// sealed_windows() + 1.
  [[nodiscard]] std::vector<TrendPoint> trend(const Prefix& p) const;

  /// EWMA-baseline sustained-growth alarms (see emerging_sustained_from in
  /// core/window_ring.hpp): prefixes heavy now whose share held at
  /// >= growth_factor x the baseline for `min_epochs` consecutive epochs
  /// ending at the live one. Needs history_depth >= min_epochs and at least
  /// min_epochs completed rotations; returns empty until then.
  [[nodiscard]] std::vector<SustainedPrefix> emerging_sustained(
      double theta, double growth_factor, std::uint32_t min_epochs,
      double alpha = 0.5) const;

  [[nodiscard]] std::uint64_t epochs_completed() const noexcept {
    return ring_.epochs_completed();
  }
  [[nodiscard]] std::uint64_t epoch_packets() const noexcept { return epoch_packets_; }
  /// K: sealed epochs the ring retains.
  [[nodiscard]] std::size_t history_depth() const noexcept { return ring_.depth(); }
  /// Sealed epochs currently populated (saturates at history_depth()).
  [[nodiscard]] std::size_t sealed_windows() const noexcept {
    return ring_.sealed_count();
  }
  [[nodiscard]] std::uint64_t packets_in_epoch() const noexcept {
    return ring_.live().stream_length();
  }
  [[nodiscard]] bool converged_epoch() const noexcept {
    return ring_.live().psi() == 0.0 ||
           static_cast<double>(epoch_packets_) > ring_.live().psi();
  }
  [[nodiscard]] const Hierarchy& hierarchy() const noexcept { return *hierarchy_; }

 private:
  void maybe_rotate();
  [[nodiscard]] std::vector<const LatticeHhh*> windows_oldest_first() const {
    return ring_.windows_oldest_first();
  }

  MonitorConfig cfg_;
  std::uint64_t epoch_packets_;
  std::unique_ptr<Hierarchy> hierarchy_;
  WindowRing<LatticeHhh> ring_;
};

}  // namespace rhhh
