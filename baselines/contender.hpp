// The comparison interface of the paper's evaluation (Section 4): the one
// surface through which the figure benches, the comparison tests and
// examples/algorithm_comparison drive RHHH, MST and the ancestry tries, so
// one roster lines them up on the same stream. The library itself has one
// HHH class, LatticeHhh, and never goes through this interface;
// LatticeContender puts a lattice behind it.
#pragma once

#include <string_view>

#include "hhh/lattice_hhh.hpp"

namespace rhhh {

class HhhContender {
 public:
  virtual ~HhhContender() = default;

  /// Process one packet with fully-specified key `x`.
  virtual void update(Key128 x) = 0;
  /// The approximate HHH set at threshold theta (Definition 10).
  [[nodiscard]] virtual HhhSet output(double theta) const = 0;
  /// Convergence bound psi (Theorem 6.17); 0 for deterministic algorithms.
  [[nodiscard]] virtual double psi() const { return 0.0; }
  /// Reset to the empty-stream state (same configuration).
  virtual void clear() = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual const Hierarchy& hierarchy() const = 0;

  HhhContender() = default;
  HhhContender(const HhhContender&) = delete;
  HhhContender& operator=(const HhhContender&) = delete;
};

/// A LatticeHhh (RHHH, 10-RHHH, MST or Sampled-MST) in a roster.
class LatticeContender final : public HhhContender {
 public:
  LatticeContender(const Hierarchy& h, LatticeMode mode, LatticeParams p)
      : lattice_(h, mode, p) {}

  void update(Key128 x) override { lattice_.update(x); }
  [[nodiscard]] HhhSet output(double theta) const override {
    return lattice_.output(theta);
  }
  [[nodiscard]] double psi() const override { return lattice_.psi(); }
  void clear() override { lattice_.clear(); }
  [[nodiscard]] std::string_view name() const override { return lattice_.name(); }
  [[nodiscard]] const Hierarchy& hierarchy() const override {
    return lattice_.hierarchy();
  }
  /// The lattice itself, for calls outside the comparison interface (the
  /// batched update_batch path fig5 times next to the roster rows).
  [[nodiscard]] LatticeHhh& lattice() noexcept { return lattice_; }

 private:
  LatticeHhh lattice_;
};

}  // namespace rhhh
