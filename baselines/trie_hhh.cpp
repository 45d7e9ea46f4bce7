#include "trie_hhh.hpp"

#include <algorithm>
#include <stdexcept>

#include "hhh/conditioned.hpp"

namespace rhhh {

TrieHhh::TrieHhh(const Hierarchy& h, AncestryMode mode, double eps)
    : h_(&h), mode_(mode), eps_(eps), name_(to_string(mode)) {
  if (!(eps > 0.0) || eps >= 1.0) {
    throw std::invalid_argument("TrieHhh: eps must be in (0,1)");
  }
  window_ = static_cast<std::uint64_t>(std::ceil(1.0 / eps));
  clear();
}

std::uint32_t TrieHhh::alloc_node() {
  if (!free_.empty()) {
    const std::uint32_t s = free_.back();
    free_.pop_back();
    return s;
  }
  pool_.emplace_back();
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void TrieHhh::insert_node(const Prefix& p, const Prefix& parent, bool parent_valid,
                          std::uint64_t g, std::uint64_t delta) {
  const std::uint32_t s = alloc_node();
  TrieNode& n = pool_[s];
  n.self = p;
  n.parent = parent;
  n.parent_valid = parent_valid;
  n.g = g;
  n.delta = delta;
  n.children = 0;
  n.level = h_->node(p.node).level;
  n.live = true;
  index_.insert_or_assign(p, s);
  ++live_;
}

void TrieHhh::update_weighted(Key128 x, std::uint64_t w) {
  if (w == 0) return;
  n_ += w;
  mass_index_dirty_ = true;  // the only hot-path cost of the estimate index

  Prefix cur{h_->bottom(), h_->mask_key(h_->bottom(), x)};
  if (std::uint32_t* slot = index_.find(cur)) {
    pool_[*slot].g += w;
  } else {
    // Walk the canonical chain upward to the nearest tracked ancestor,
    // collecting the untracked prefixes on the way (the root is always
    // tracked, so the walk terminates).
    auto& chain = chain_scratch_;
    chain.clear();
    chain.push_back(cur);
    Prefix par = cur;
    std::uint32_t par_slot = 0;
    while (true) {
      const auto pn = h_->canonical_parent(par.node);
      par = h_->generalize_to(par, *pn);  // pn always exists below the root
      if (const std::uint32_t* slot = index_.find(par)) {
        par_slot = *slot;
        break;
      }
      chain.push_back(par);
    }

    const std::uint64_t delta = epoch_ - 1;
    if (mode_ == AncestryMode::kPartial) {
      // Lazy one-step path expansion: track only the next missing node below
      // the nearest tracked ancestor. Repeated traffic under a prefix grows
      // the path toward the items one level per arrival, so aggregate
      // structure materializes without full-path inserts.
      insert_node(chain.back(), par, true, w, delta);
      ++pool_[par_slot].children;
    } else {
      // Full ancestry: materialize the whole missing path so every tracked
      // node's ancestors are tracked. Intermediates carry no own mass.
      Prefix parent = par;
      for (std::size_t i = chain.size(); i-- > 1;) {
        insert_node(chain[i], parent, true, 0, delta);
        pool_[*index_.find(chain[i])].children = 1;
        parent = chain[i];
      }
      insert_node(chain.front(), parent, true, w, delta);
      ++pool_[par_slot].children;
    }
  }

  while (n_ >= next_epoch_) {
    compress();
    ++epoch_;
    next_epoch_ += window_;
  }
}

void TrieHhh::compress() {
  // Prune compressible leaves, most specific level first so a parent whose
  // last child disappears can be pruned in the same sweep.
  auto& sweep = sweep_scratch_;
  sweep.clear();
  for (std::uint32_t s = 0; s < pool_.size(); ++s) {
    if (pool_[s].live) sweep.emplace_back(pool_[s].level, s);
  }
  std::sort(sweep.begin(), sweep.end());
  for (const auto& [level, s] : sweep) {
    TrieNode& n = pool_[s];
    if (!n.live || n.children != 0 || !n.parent_valid) continue;
    if (n.g + n.delta > epoch_) continue;
    const std::uint32_t* ps = index_.find(n.parent);
    TrieNode& parent = pool_[*ps];  // invariant: parents of live nodes live
    parent.g += n.g;
    --parent.children;
    index_.erase(n.self);
    n.live = false;
    free_.push_back(s);
    --live_;
    ++compressions_;
  }
}

void TrieHhh::rebuild_mass_index() const {
  // Counted mass per *lattice* prefix: every tracked node contributes its g
  // to all of its lattice ancestors, so (unlike the canonical-parent tree)
  // off-chain aggregates such as (*, d) in two dimensions are estimated too.
  mass_index_.clear();
  const std::size_t H = h_->size();
  for (std::uint32_t s = 0; s < pool_.size(); ++s) {
    const TrieNode& n = pool_[s];
    if (!n.live || n.g == 0) continue;
    for (std::uint32_t a = 0; a < H; ++a) {
      if (h_->node_generalizes(a, n.self.node)) {
        mass_index_[Prefix{a, h_->mask_key(a, n.self.key)}] += n.g;
      }
    }
  }
  mass_index_dirty_ = false;
}

double TrieHhh::estimate(const Prefix& p) const {
  if (n_ == 0) return 0.0;
  // Every arrival is counted (g) at exactly one tracked node, and
  // compression folds a removed node's g into its parent: the mass of any
  // prefix is the sum over tracked nodes it generalizes, undercounting by
  // at most epoch - 1 (the lossy-counting bound output() uses as slack).
  // The per-prefix sums live in mass_index_, rebuilt lazily after updates.
  if (mass_index_dirty_) rebuild_mass_index();
  const std::uint64_t* f = mass_index_.find(p);
  // A prefix with zero tracked evidence reports 0, not the bare slack:
  // emerging_from() treats a zero previous share as "brand new, infinite
  // growth", and a slack-only floor would silently suppress exactly those
  // alarms on trie-backed windowed monitors.
  if (f == nullptr || *f == 0) return 0.0;
  return static_cast<double>(*f) + static_cast<double>(epoch_ - 1);
}

HhhSet TrieHhh::output(double theta) const {
  HhhSet P(h_->size());
  if (n_ == 0) return P;
  const double thresh = theta * static_cast<double>(n_);
  // Lossy-counting undercount bound: any prefix missed at most (epoch - 1)
  // ~ eps*N arrivals across insertion lag and compressions.
  const double slack = static_cast<double>(epoch_ - 1);

  if (mass_index_dirty_) rebuild_mass_index();
  const auto& counted = mass_index_;
  const std::size_t H = h_->size();

  const UpperEstimate upper = [&](const Prefix& q) {
    const std::uint64_t* f = counted.find(q);
    return (f != nullptr ? static_cast<double>(*f) : 0.0) + slack;
  };

  std::vector<std::vector<std::pair<Prefix, std::uint64_t>>> by_node(H);
  counted.for_each([&](const Prefix& p, const std::uint64_t& f) {
    by_node[p.node].emplace_back(p, f);
  });

  // Same conservative level ascent as Algorithm 1 (shared calcPred), with
  // the deterministic slack in place of the sampling correction.
  for (int level = 0; level < h_->num_levels(); ++level) {
    for (const std::uint32_t node : h_->nodes_at_level(level)) {
      for (const auto& [p, f] : by_node[node]) {
        const double f_lo = static_cast<double>(f);
        const double f_hi = f_lo + slack;
        // A prefix with f_hi < theta*N has true conditioned frequency below
        // the threshold (C <= f <= f_hi): skipping it is sound and removes
        // bound-slop false positives.
        if (f_hi < thresh) continue;
        const auto g_set = best_generalized(*h_, p, P);
        const double c_hat = f_hi + calc_pred(*h_, p, P, g_set, upper);
        if (c_hat >= thresh) {
          P.add(HhhCandidate{p, f_hi, f_lo, f_hi, c_hat});
        }
      }
    }
  }
  return P;
}

bool TrieHhh::validate() const {
  FlatHashMap<Prefix, std::uint32_t, PrefixHash> child_counts(2 * live_ + 16);
  std::size_t live_seen = 0;
  std::uint64_t mass = 0;
  bool root_seen = false;
  for (const TrieNode& n : pool_) {
    if (!n.live) continue;
    ++live_seen;
    mass += n.g;
    const std::uint32_t* slot = index_.find(n.self);
    if (slot == nullptr || !pool_[*slot].live || !(pool_[*slot].self == n.self)) {
      return false;
    }
    if (!n.parent_valid) {
      if (root_seen || n.self.node != h_->top()) return false;
      root_seen = true;
      continue;
    }
    const std::uint32_t* ps = index_.find(n.parent);
    if (ps == nullptr || !pool_[*ps].live) return false;
    if (!h_->strictly_generalizes(n.parent, n.self)) return false;
    ++child_counts[n.parent];
  }
  if (!root_seen || live_seen != live_ || mass != n_) return false;
  bool ok = true;
  for (const TrieNode& n : pool_) {
    if (!n.live) continue;
    const std::uint32_t* c = child_counts.find(n.self);
    const std::uint32_t actual = c != nullptr ? *c : 0;
    if (n.children != actual) ok = false;
  }
  return ok;
}

void TrieHhh::clear() {
  index_.clear();
  mass_index_.clear();
  mass_index_dirty_ = true;
  pool_.clear();
  free_.clear();
  live_ = 0;
  n_ = 0;
  epoch_ = 1;
  next_epoch_ = window_;
  compressions_ = 0;
  const Prefix root{h_->top(), Key128{}};
  insert_node(root, root, false, 0, 0);
}

}  // namespace rhhh
