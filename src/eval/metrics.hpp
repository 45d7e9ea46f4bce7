// The three quality metrics of the paper's evaluation (Section 4):
// accuracy-error ratio (Fig. 2), coverage errors (Fig. 3) and false
// positives (Fig. 4), all measured against the exact ground truth.
#pragma once

#include <cstddef>

#include "eval/ground_truth.hpp"
#include "hhh/hhh_set.hpp"

namespace rhhh {

/// Fig. 2: fraction of returned HHH candidates whose frequency estimate is
/// off by more than eps*N (|f_p - f-hat_p| > eps*N).
struct AccuracyReport {
  std::size_t candidates = 0;
  std::size_t errors = 0;
  [[nodiscard]] double ratio() const noexcept {
    return candidates == 0 ? 0.0 : static_cast<double>(errors) /
                                       static_cast<double>(candidates);
  }
};
[[nodiscard]] AccuracyReport accuracy_errors(const ExactHhh& truth, const HhhSet& P,
                                             double eps);

/// Fig. 3: coverage errors (false negatives): prefixes q not returned whose
/// exact conditioned frequency w.r.t. the returned set reaches theta*N.
/// The candidate universe is every prefix with f_q >= theta*N (no other
/// prefix can violate coverage since C_{q|P} <= f_q).
struct CoverageReport {
  std::size_t candidates = 0;  ///< prefixes examined (heavy, not returned)
  std::size_t misses = 0;      ///< of those, C_{q|P} >= theta*N
  [[nodiscard]] double ratio() const noexcept {
    return candidates == 0 ? 0.0 : static_cast<double>(misses) /
                                       static_cast<double>(candidates);
  }
};
[[nodiscard]] CoverageReport coverage_errors(const ExactHhh& truth, const HhhSet& P,
                                             double theta);

/// Fig. 4: share of returned prefixes that are not exact HHHs, plus recall
/// of the exact set for context.
struct FalsePositiveReport {
  std::size_t returned = 0;
  std::size_t false_positives = 0;
  std::size_t exact_size = 0;
  std::size_t exact_found = 0;
  [[nodiscard]] double ratio() const noexcept {
    return returned == 0 ? 0.0 : static_cast<double>(false_positives) /
                                     static_cast<double>(returned);
  }
  [[nodiscard]] double recall() const noexcept {
    return exact_size == 0 ? 1.0 : static_cast<double>(exact_found) /
                                       static_cast<double>(exact_size);
  }
};
[[nodiscard]] FalsePositiveReport false_positives(const HhhSet& exact,
                                                  const HhhSet& returned);

}  // namespace rhhh
