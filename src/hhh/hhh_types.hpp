// Shared vocabulary of the HHH layer: results, result sets and the
// algorithm interface every HHH implementation satisfies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "hh/backend.hpp"
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

/// Interface shared by all HHH algorithms (RHHH, MST, Sampled-MST, the
/// ancestry tries). `update` is the per-packet path; `output` materializes
/// the approximate HHH set for a threshold theta (Definition 10).
class HhhAlgorithm {
 public:
  virtual ~HhhAlgorithm() = default;

  /// Process one packet with fully-specified key `x`.
  virtual void update(Key128 x) = 0;
  /// Process `n` packets in one call: the batched hot path. The contract is
  /// strict equivalence -- update_batch(keys, n) leaves the algorithm in
  /// EXACTLY the state n update(keys[i]) calls in order would (randomized
  /// implementations must consume their RNG draws in packet order), so
  /// callers may mix the two paths freely and split batches anywhere. The
  /// default is the per-packet loop; LatticeHhh overrides it with a staged
  /// block-RNG / survivor-compaction / prefetched-apply pipeline.
  virtual void update_batch(const Key128* keys, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) update(keys[i]);
  }
  /// Process a weighted arrival (e.g. byte counting). Weight w acts as w
  /// consecutive packets of the same key.
  virtual void update_weighted(Key128 x, std::uint64_t w) = 0;
  /// The approximate HHH set at threshold theta.
  [[nodiscard]] virtual HhhSet output(double theta) const = 0;
  /// Conservative point estimate of f_p for an arbitrary prefix, usable
  /// without materializing an HHH set -- what the emerging-aggregate
  /// comparison (core/window_ring.hpp) probes the sealed epoch with. At
  /// least as large as the f_hi output() would report for the prefix; the
  /// same accuracy guarantee as output() applies (an eps*N-style bound,
  /// not a hard upper bound for every implementation -- see
  /// TrieHhh::estimate for the partial-ancestry caveat).
  [[nodiscard]] virtual double estimate(const Prefix& p) const = 0;
  /// N: stream length consumed so far (total weight).
  [[nodiscard]] virtual std::uint64_t stream_length() const = 0;
  /// Convergence bound psi (Theorem 6.17); 0 for deterministic algorithms.
  [[nodiscard]] virtual double psi() const { return 0.0; }
  /// Per-node Space-Saving probes for the estimator health layer
  /// (src/obs/health): one BackendProbe per lattice node, in node order.
  /// Probe-time cost only -- never taken on the packet path. The default is
  /// empty: algorithms without per-node summaries (the ancestry tries)
  /// report nothing and the health layer degrades to stream-level
  /// certificates.
  [[nodiscard]] virtual std::vector<BackendProbe> health_probes() const {
    return {};
  }
  /// Reset to the empty-stream state (same configuration).
  virtual void clear() = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual const Hierarchy& hierarchy() const = 0;

  HhhAlgorithm() = default;
  HhhAlgorithm(const HhhAlgorithm&) = delete;
  HhhAlgorithm& operator=(const HhhAlgorithm&) = delete;
};

}  // namespace rhhh
