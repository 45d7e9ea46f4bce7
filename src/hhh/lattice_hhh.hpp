// LatticeHhh: the paper's lattice-of-heavy-hitters structure with three
// update disciplines sharing one Output implementation (Algorithm 1):
//
//   kRhhh        -- the paper's contribution: draw d ~ U[0, V); iff d < H,
//                   update lattice node d. O(1) worst-case per packet
//                   (Theorem 6.18). V = H processes every packet, V = 10H is
//                   the paper's "10-RHHH". The r parameter implements
//                   Corollary 6.8 (r independent draws per packet).
//   kMst         -- the deterministic baseline of [35]: update all H nodes.
//   kSampledMst  -- the Section 1 strawman: with probability H/V update all
//                   H nodes; O(1) amortized but O(H) worst case.
//
// Estimates scale by V/r (RHHH), 1 (MST) or V/H (Sampled-MST); randomized
// modes add the 2*Z*sqrt(N*V) slack of Theorems 6.11/6.15 to conditioned
// frequencies.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "hh/backend.hpp"
#include "hh/space_saving.hpp"
#include "hhh/conditioned.hpp"
#include "hhh/hhh_set.hpp"
#include "stats/normal.hpp"
#include "util/random.hpp"

namespace rhhh {

enum class LatticeMode : std::uint8_t { kRhhh, kMst, kSampledMst };

[[nodiscard]] constexpr std::string_view to_string(LatticeMode m) noexcept {
  switch (m) {
    case LatticeMode::kRhhh: return "RHHH";
    case LatticeMode::kMst: return "MST";
    case LatticeMode::kSampledMst: return "Sampled-MST";
  }
  return "?";
}

struct LatticeParams {
  double eps = 1e-3;    ///< overall accuracy target (split eps_a = eps_s = eps/2)
  double delta = 1e-3;  ///< overall confidence target (delta_a = delta_s = delta/3)
  std::uint32_t V = 0;  ///< performance parameter; 0 means V = H
  std::uint32_t r = 1;  ///< independent updates per packet (Corollary 6.8)
  std::uint64_t seed = 1;
  std::size_t counters_override = 0;  ///< nonzero: explicit per-node capacity
  /// Software-prefetch lookahead of the batched apply loop (survivor slots
  /// prefetched this many apply steps ahead; 0 disables prefetching). A
  /// pure performance knob: results are byte-identical for every value.
  /// ~8 covers an L2 miss at survivor-apply cost on commodity cores;
  /// bench/ablation_batch_pipeline sweeps it.
  std::uint32_t prefetch_distance = 8;
};

/// The lattice of per-node Space-Saving summaries (paper Section 3.1: one
/// heavy-hitter instance per lattice node; Space-Saving because it merges,
/// which the engine's cross-shard view and the store rely on). The
/// library's one HHH class: the monitors, the engine, the store and the
/// health layer all run it directly.
class LatticeHhh {
 public:
  LatticeHhh(const Hierarchy& h, LatticeMode mode, LatticeParams p);
  LatticeHhh(const LatticeHhh&) = delete;
  LatticeHhh& operator=(const LatticeHhh&) = delete;

  /// Per-packet update (Algorithm 1 lines 1-7). noexcept and allocation-free.
  void update(Key128 x) {
    ++n_;
    switch (mode_) {
      case LatticeMode::kRhhh:
        for (std::uint32_t i = 0; i < p_.r; ++i) {
          const std::uint32_t d = rng_.bounded(V_);
          if (d < H_) {
            hh_[d].increment(h_->mask_key(d, x), 1);
            ++updates_;
          }
        }
        break;
      case LatticeMode::kMst:
        for (std::uint32_t d = 0; d < H_; ++d) {
          hh_[d].increment(h_->mask_key(d, x), 1);
        }
        updates_ += H_;
        break;
      case LatticeMode::kSampledMst:
        if (rng_.bounded(V_) < H_) {
          for (std::uint32_t d = 0; d < H_; ++d) {
            hh_[d].increment(h_->mask_key(d, x), 1);
          }
          updates_ += H_;
        }
        break;
    }
  }

  /// Batched update (the engine hot path): a staged pipeline equivalent to
  /// n update() calls in order, byte for byte.
  ///
  ///   1. block-RNG     -- all sampling draws for the batch generated in
  ///                       one tight Lemire-bounded loop with *branchless*
  ///                       survivor compaction: the serial generator chain
  ///                       is the loop's latency bound and the reduction,
  ///                       pick store, and flag add ride in its shadow, so
  ///                       the random ~H/V survivor pattern costs zero
  ///                       branch mispredicts (the per-packet path eats one
  ///                       ~10%-taken branch per draw). Draws are consumed
  ///                       in packet order (r per packet), so the RNG state
  ///                       after the batch matches the per-packet path
  ///                       exactly.
  ///   2. survivor build -- the compacted picks (draw < H; in 10-RHHH ~1
  ///                       packet in 10) expand into a dense list carrying
  ///                       the lattice node, the node-masked key and its
  ///                       index hash: the common no-op packet costs one
  ///                       draw and two blind stores, and the per-node mask
  ///                       + hash work is paid once here, not at the probe.
  ///   3. apply         -- survivors replayed in packet order against the
  ///                       per-node summaries through Space-Saving's
  ///                       hash/probe split, index slots software-
  ///                       prefetched `prefetch_distance` slots ahead and
  ///                       counter cells half that distance ahead (the
  ///                       dependent second touch).
  ///
  /// MST batches stage 2/3 over every (packet, node) pair (no draws);
  /// Sampled-MST draws once per packet and fans survivors across all H
  /// nodes. Per-node increment order equals the per-packet path's, so all
  /// modes produce identical output()/estimate() state (golden-digest
  /// pinned in tests/test_batch.cpp).
  void update_batch(const Key128* keys, std::size_t n);

  /// Weighted arrival: behaves as w consecutive packets of key x, but the
  /// randomized modes draw once and feed the whole weight through (the
  /// "duplicate the packet" view of Corollary 6.8 applied to weights).
  void update_weighted(Key128 x, std::uint64_t w);

  /// The approximate HHH set at threshold theta (Definition 10).
  [[nodiscard]] HhhSet output(double theta) const;

  // -- distributed deployment support (paper Section 5.2) -------------------
  /// Ingest one pre-sampled record: the switch already drew d < H and
  /// forwarded (d, x); this applies the corresponding per-node update.
  void ingest_sampled(std::uint32_t node, Key128 x) {
    hh_[node].increment(h_->mask_key(node, x), 1);
    ++updates_;
  }
  /// Account for `packets` offered at the switch (sampled or not) so that
  /// thresholds and slack terms use the true stream length N.
  void advance_stream(std::uint64_t packets) noexcept { n_ += packets; }

  /// Merge a same-configuration instance observing a *different* stream
  /// (paper Section 7: the distributed deployment "is capable of analyzing
  /// data from multiple network devices"). Requires identical hierarchy,
  /// mode, V and r (so per-node estimates share one scale); throws
  /// std::invalid_argument otherwise.
  void merge(const LatticeHhh& other);

  /// merge() from flat form, for an instance that would be built as
  /// (hierarchy(), mode, p): the store's merged queries feed archived
  /// windows through this without building them. require_mergeable()
  /// throws std::invalid_argument exactly where building that instance or
  /// merge() would; then merge_node() folds each node's roster in through
  /// Space-Saving's one merge, and restore_stream() adds its N and updates.
  void require_mergeable(LatticeMode mode, const LatticeParams& p) const;
  void merge_node(std::uint32_t node, const Roster<Key128>& other);

  /// True iff merge(other) would be accepted: same hierarchy shape, mode,
  /// V and r. Sampling seeds may differ (and should, across shards).
  [[nodiscard]] bool mergeable_with(const LatticeHhh& other) const noexcept {
    return H_ == other.H_ && h_->name() == other.h_->name() &&
           mode_ == other.mode_ && V_ == other.V_ && p_.r == other.p_.r;
  }
  /// The construction parameters (V still as passed; see V() for the
  /// resolved value). Snapshot paths use this to clone compatible instances.
  [[nodiscard]] const LatticeParams& params() const noexcept { return p_; }

  /// N: stream length consumed so far (total weight).
  [[nodiscard]] std::uint64_t stream_length() const { return n_; }
  /// Convergence bound psi (Theorem 6.17); 0 for MST.
  [[nodiscard]] double psi() const;
  /// Reset to the empty-stream state (same configuration).
  void clear();
  [[nodiscard]] std::string_view name() const { return name_; }
  [[nodiscard]] const Hierarchy& hierarchy() const { return *h_; }

  // -- introspection (tests, benches) ---------------------------------------
  [[nodiscard]] LatticeMode mode() const noexcept { return mode_; }
  [[nodiscard]] std::uint32_t V() const noexcept { return V_; }
  [[nodiscard]] std::uint32_t H() const noexcept { return H_; }
  /// Estimate scale: multiply per-node counts by this to estimate f.
  [[nodiscard]] double scale() const noexcept { return scale_; }
  /// Total counter increments performed (the work RHHH saves).
  [[nodiscard]] std::uint64_t updates_performed() const noexcept { return updates_; }
  [[nodiscard]] const SpaceSaving<Key128>& instance(std::uint32_t node) const noexcept {
    return hh_[node];
  }
  [[nodiscard]] std::size_t counters_per_node() const noexcept { return counters_; }
  /// Apply-loop prefetch lookahead (see LatticeParams::prefetch_distance);
  /// adjustable at runtime for sweeps -- never changes results.
  [[nodiscard]] std::uint32_t prefetch_distance() const noexcept {
    return p_.prefetch_distance;
  }
  void set_prefetch_distance(std::uint32_t d) noexcept { p_.prefetch_distance = d; }
  /// One BackendProbe per lattice node; the estimator health layer folds
  /// these into accuracy certificates.
  [[nodiscard]] std::vector<BackendProbe> health_probes() const;
  [[nodiscard]] double eps_a() const noexcept { return eps_a_; }
  [[nodiscard]] double eps_s() const noexcept { return eps_s_; }
  /// The Z_{1 - delta/8} quantile correction() is built from (0 for MST);
  /// exposed so the health layer can recompute the sampling slack at a
  /// merged cross-shard N.
  [[nodiscard]] double z_corr() const noexcept { return z_corr_; }
  /// The additive conditioned-frequency slack used by output (0 for MST).
  [[nodiscard]] double correction() const noexcept;
  /// Point estimate f-hat for an arbitrary prefix (Definition 11's
  /// V * X-hat, using the node's upper estimate), usable without
  /// materializing an HHH set: the emerging and trend queries
  /// (core/window_ring.hpp) probe sealed windows with it. At least the
  /// f_hi output() would report for the prefix.
  [[nodiscard]] double estimate(const Prefix& p) const {
    return scale_ * static_cast<double>(hh_[p.node].upper(p.key));
  }

  // -- durable-store reload (src/store/serde.cpp) ---------------------------
  /// Rebuild node `node`'s summary from a serialized roster (counter-array
  /// order, see SpaceSaving::load) plus its arrivals total. Throws
  /// std::invalid_argument on impossible rosters. The reloaded node
  /// reproduces the serialized instance's estimates and iteration order
  /// exactly.
  void restore_node(std::uint32_t node, std::span<const HhEntry<Key128>> entries,
                    std::uint64_t total);
  /// Restore the stream-level counters a reload cannot derive from the
  /// rosters: N (which output() thresholds and slack terms scale by) and
  /// the performed-updates tally.
  void restore_stream(std::uint64_t n, std::uint64_t updates) noexcept {
    n_ = n;
    updates_ = updates;
  }

 private:
  /// The V an instance built as (h, mode, p) resolves to. Throws
  /// std::invalid_argument on parameters the constructor rejects.
  [[nodiscard]] static std::uint32_t resolved_V(const Hierarchy& h, LatticeMode mode,
                                                const LatticeParams& p);

  const Hierarchy* h_;
  LatticeMode mode_;
  LatticeParams p_;
  std::string name_;
  double eps_a_ = 0.0;
  double eps_s_ = 0.0;
  double delta_s_ = 0.0;
  double scale_ = 1.0;
  double z_corr_ = 0.0;  ///< Z_{1 - delta/8}
  std::size_t counters_ = 0;
  std::uint32_t V_ = 1;
  std::uint32_t H_ = 1;
  std::vector<SpaceSaving<Key128>> hh_;
  Xoroshiro128 rng_;
  std::uint64_t n_ = 0;
  std::uint64_t updates_ = 0;

  // -- update_batch() scratch (reused across batches; no semantic state, so
  //    clear() leaves them alone and they never serialize) ------------------
  /// One survivor of the compaction pass: packet order is preserved, so the
  /// apply loop replays increments in exactly the per-packet sequence.
  struct Survivor {
    std::uint32_t node;  ///< lattice node the draw selected
    std::uint32_t pkt;   ///< originating batch index (diagnostics/asserts)
    std::uint64_t hash;  ///< SpaceSaving::hash_of(mkey)
    Key128 mkey;         ///< node-masked key, ready to apply
  };
  /// Stage-1 compacted picks, packed (draw_index << 16) | node -- H < 2^16
  /// is enforced at construction, and only the surviving prefix is read.
  std::vector<std::uint64_t> picks_;
  std::vector<Survivor> survivors_;    ///< stage-2 masked + hashed work list
  void apply_survivors();              ///< stage 3 (lattice_hhh.cpp)
};

/// The name most callers spell: the lattice over Space-Saving, the paper's
/// evaluated configuration.
using RhhhSpaceSaving = LatticeHhh;
/// The name of the algorithm interface LatticeHhh replaced; kept so code
/// written against that interface still compiles.
using HhhAlgorithm = LatticeHhh;

/// Factory helpers mirroring the paper's named configurations.
[[nodiscard]] std::unique_ptr<RhhhSpaceSaving> make_rhhh(const Hierarchy& h,
                                                         LatticeParams p = {});
/// "10-RHHH": V = 10 * H.
[[nodiscard]] std::unique_ptr<RhhhSpaceSaving> make_10rhhh(const Hierarchy& h,
                                                           LatticeParams p = {});
[[nodiscard]] std::unique_ptr<RhhhSpaceSaving> make_mst(const Hierarchy& h,
                                                        LatticeParams p = {});

}  // namespace rhhh
