// Exact offline HHH computation (Definitions 6 and 8) -- the ground truth
// behind the paper's accuracy (Fig. 2), coverage (Fig. 3) and false-positive
// (Fig. 4) measurements.
//
// The exact algorithm needs no inclusion-exclusion: it keeps the full
// fully-specified frequency table, walks levels bottom-up, and evaluates
// conditioned frequencies as "mass under q not covered by the already
// selected set" via per-item covered flags (exactly Definition 6).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hhh/hhh_set.hpp"
#include "util/flat_hash_map.hpp"

namespace rhhh {

class ExactHhh {
 public:
  explicit ExactHhh(const Hierarchy& h) : h_(&h) {}

  /// Accumulate `w` arrivals of fully-specified key x.
  void add(Key128 x, std::uint64_t w = 1) {
    counts_[x] += w;
    n_ += w;
    dirty_ = true;
  }

  [[nodiscard]] std::uint64_t stream_length() const noexcept { return n_; }
  [[nodiscard]] std::size_t distinct_keys() const noexcept { return counts_.size(); }
  [[nodiscard]] const Hierarchy& hierarchy() const noexcept { return *h_; }

  /// The exact HHH set at threshold theta (Definition 8). Each returned
  /// candidate carries the exact frequency (f_lo == f_hi == f_est) and the
  /// exact conditioned frequency at admission in c_hat.
  [[nodiscard]] HhhSet compute(double theta) const;

  /// Exact frequencies of arbitrary prefixes (Definition 3).
  [[nodiscard]] std::vector<std::uint64_t> frequencies(std::span<const Prefix> ps) const;

  /// Exact conditioned frequencies C_{q|P} of a batch of prefixes w.r.t. an
  /// arbitrary prefix set P (Definition 6).
  [[nodiscard]] std::vector<std::uint64_t> conditioned(std::span<const Prefix> qs,
                                                       const HhhSet& P) const;

  /// All prefixes (over all lattice nodes) with exact frequency >= theta*N:
  /// the complete candidate set for coverage-error checks (C_{q|P} <= f_q,
  /// so no other prefix can violate coverage).
  [[nodiscard]] std::vector<Prefix> heavy_prefixes(double theta) const;

  void clear() {
    counts_.clear();
    n_ = 0;
    dirty_ = true;
  }

 private:
  void materialize() const;
  /// covered[i] = 1 iff item i is generalized by some member of P.
  [[nodiscard]] std::vector<std::uint8_t> covered_by(const HhhSet& P) const;

  const Hierarchy* h_;
  FlatHashMap<Key128, std::uint64_t> counts_{1 << 12};
  std::uint64_t n_ = 0;

  mutable std::vector<Key128> keys_;
  mutable std::vector<std::uint64_t> freqs_;
  mutable bool dirty_ = true;
};

}  // namespace rhhh
