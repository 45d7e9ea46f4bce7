// Result vocabulary of the HHH layer: one returned prefix with its
// frequency bounds, and the set Output (Algorithm 1) returns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hierarchy/hierarchy.hpp"
#include "util/flat_hash_map.hpp"

namespace rhhh {

/// One returned HHH prefix with its frequency bounds (Definition 11) and the
/// conservative conditioned-frequency estimate that admitted it.
struct HhhCandidate {
  Prefix prefix{};
  double f_est = 0.0;  ///< point estimate of f_p (V * X-hat for RHHH)
  double f_lo = 0.0;   ///< lower bound on f_p
  double f_hi = 0.0;   ///< upper bound on f_p
  double c_hat = 0.0;  ///< conservative estimate of C_{p|P} at admission
};

/// The set P produced by Output (Algorithm 1), with O(1) membership tests
/// and per-node grouping (used when computing G(p|P) for higher levels).
class HhhSet {
 public:
  explicit HhhSet(std::size_t num_nodes = 0) : by_node_(num_nodes) {}

  void add(const HhhCandidate& c) {
    const auto idx = static_cast<std::uint32_t>(items_.size());
    items_.push_back(c);
    index_.try_emplace(c.prefix, idx);
    if (c.prefix.node < by_node_.size()) by_node_[c.prefix.node].push_back(idx);
  }

  [[nodiscard]] bool contains(const Prefix& p) const noexcept {
    return index_.contains(p);
  }
  [[nodiscard]] const HhhCandidate* find(const Prefix& p) const noexcept {
    const std::uint32_t* i = index_.find(p);
    return i != nullptr ? &items_[*i] : nullptr;
  }

  [[nodiscard]] const std::vector<HhhCandidate>& items() const noexcept {
    return items_;
  }
  [[nodiscard]] const HhhCandidate& operator[](std::size_t i) const noexcept {
    return items_[i];
  }
  /// Indices of members whose prefix lives at lattice node `n`.
  [[nodiscard]] const std::vector<std::uint32_t>& at_node(std::uint32_t n) const noexcept {
    return by_node_[n];
  }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  [[nodiscard]] auto begin() const noexcept { return items_.begin(); }
  [[nodiscard]] auto end() const noexcept { return items_.end(); }

 private:
  std::vector<HhhCandidate> items_;
  FlatHashMap<Prefix, std::uint32_t, PrefixHash> index_{64};
  std::vector<std::vector<std::uint32_t>> by_node_;
};

}  // namespace rhhh
