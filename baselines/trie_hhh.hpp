// Full and Partial Ancestry [Cormode, Korn, Muthukrishnan & Srivastava,
// TKDD'08]: the deterministic trie-based HHH comparators the paper
// evaluates against (Figures 2-5).
//
// Both maintain a trie of tracked prefixes along the hierarchy's canonical
// parent chain, with lossy-counting epochs of w = ceil(1/eps) updates: a
// node records (g, delta) -- arrivals counted since insertion and the
// maximal undercount at insertion time (current epoch - 1). At each epoch
// boundary, leaf nodes with g + delta <= epoch are compressed into their
// nearest tracked ancestor.
//
//   * Full Ancestry inserts the arriving item *and* every missing ancestor
//     on its chain (the invariant: a tracked node's ancestors are tracked).
//   * Partial Ancestry lazily expands one node per arrival: it inserts only
//     the next missing node below the nearest tracked ancestor, so hot paths
//     grow toward the items while cold regions stay shallow.
//
// For 2D lattices we use Hierarchy::canonical_parent as the chain (see
// DESIGN.md, "Full/Partial Ancestry adaptation").
//
// Update cost is O(H) worst case, amortized O(H_chain + eps * cleanup) --
// notably *decreasing* with smaller eps (fewer compressions), the effect
// visible in the paper's Figure 5.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "contender.hpp"
#include "util/flat_hash_map.hpp"

namespace rhhh {

enum class AncestryMode : std::uint8_t { kFull, kPartial };

[[nodiscard]] constexpr std::string_view to_string(AncestryMode m) noexcept {
  return m == AncestryMode::kFull ? "Full-Ancestry" : "Partial-Ancestry";
}

class TrieHhh final : public HhhContender {
 public:
  TrieHhh(const Hierarchy& h, AncestryMode mode, double eps);

  void update(Key128 x) override { update_weighted(x, 1); }
  void update_weighted(Key128 x, std::uint64_t w);
  [[nodiscard]] HhhSet output(double theta) const override;
  /// Counted mass of every tracked node under p plus the lossy-counting
  /// undercount bound (epoch - 1) -- exactly the f_hi output() computes
  /// for p. O(1) per probe against a per-node mass index that is rebuilt
  /// lazily after mutations (O(tracked x H) once per update batch, shared
  /// with output()), so estimate-heavy workloads -- the emerging-prefix
  /// probes and k-epoch trend queries over sealed windows -- pay the
  /// rebuild once and every probe after that is a hash lookup. The update
  /// path only flips a dirty bit. Note: with kPartial, arrivals counted at
  /// *ancestors* of p during lazy path expansion are not included (the
  /// same holds for output()'s f_hi), so early-stream estimates can trail
  /// the true count by more than the slack until the paths are built.
  [[nodiscard]] double estimate(const Prefix& p) const;
  [[nodiscard]] std::uint64_t stream_length() const { return n_; }
  void clear() override;
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] const Hierarchy& hierarchy() const override { return *h_; }

  // -- introspection ---------------------------------------------------------
  [[nodiscard]] AncestryMode mode() const noexcept { return mode_; }
  [[nodiscard]] std::size_t tracked_nodes() const noexcept { return live_; }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] double eps() const noexcept { return eps_; }
  [[nodiscard]] std::uint64_t compressions() const noexcept { return compressions_; }

  /// Structural invariant check for tests: the root is live and never has a
  /// parent; every live node's parent is live, strictly generalizes it, and
  /// child counts match reality; total mass (sum of g) equals the stream
  /// length.
  [[nodiscard]] bool validate() const;

 private:
  struct TrieNode {
    Prefix self{};
    Prefix parent{};       // valid while parent_valid
    std::uint64_t g = 0;   // arrivals counted at this node since insertion
    std::uint64_t delta = 0;  // maximal undercount at insertion
    std::uint32_t children = 0;
    std::uint16_t level = 0;
    bool parent_valid = false;
    bool live = false;
  };

  [[nodiscard]] std::uint32_t alloc_node();
  void insert_node(const Prefix& p, const Prefix& parent, bool parent_valid,
                   std::uint64_t g, std::uint64_t delta);
  void compress();
  /// (Re)build mass_index_: counted mass per *lattice* prefix, every
  /// tracked node contributing its g to all of its lattice ancestors.
  void rebuild_mass_index() const;

  const Hierarchy* h_;
  AncestryMode mode_;
  double eps_;
  std::string name_;
  std::uint64_t window_ = 0;      // epoch width: ceil(1/eps)
  std::uint64_t next_epoch_ = 0;  // N at which the next compression runs
  std::uint64_t epoch_ = 1;       // current epoch index b
  std::uint64_t n_ = 0;
  std::uint64_t compressions_ = 0;
  std::size_t live_ = 0;

  FlatHashMap<Prefix, std::uint32_t, PrefixHash> index_{1024};
  /// Per-(lattice node, masked key) counted-mass index serving estimate()
  /// probes and output()'s candidate enumeration. Lazily rebuilt: updates
  /// only mark it dirty, the first query after a mutation pays the rebuild.
  /// Mutable cache -- the monitor/trie is single-threaded by contract.
  mutable FlatHashMap<Prefix, std::uint64_t, PrefixHash> mass_index_{1024};
  mutable bool mass_index_dirty_ = true;
  std::vector<TrieNode> pool_;
  std::vector<std::uint32_t> free_;
  std::vector<Prefix> chain_scratch_;  // avoids per-update allocation
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sweep_scratch_;
};

}  // namespace rhhh
