#include "hhh/lattice_hhh.hpp"

#include <algorithm>
#include <stdexcept>

namespace rhhh {

LatticeHhh::LatticeHhh(const Hierarchy& h, LatticeMode mode, LatticeParams p)
    : h_(&h), mode_(mode), p_(p), rng_(p.seed) {
  V_ = resolved_V(h, mode, p);
  H_ = static_cast<std::uint32_t>(h.size());

  // Error-budget split (Theorem 6.6): eps = eps_a + eps_s,
  // delta = delta_a + 2*delta_s. MST is deterministic: no sampling share.
  if (mode_ == LatticeMode::kMst) {
    eps_a_ = p_.eps;
    eps_s_ = 0.0;
    delta_s_ = 0.0;
    scale_ = 1.0;
  } else {
    eps_a_ = 0.5 * p_.eps;
    eps_s_ = 0.5 * p_.eps;
    delta_s_ = p_.delta / 3.0;
    scale_ = (mode_ == LatticeMode::kRhhh)
                 ? static_cast<double>(V_) / static_cast<double>(p_.r)
                 : static_cast<double>(V_) / static_cast<double>(H_);
  }

  // Over-sample compensation (Section 6.1): size each instance for
  // eps_a' = eps_a / (1 + eps_s), i.e. ceil((1+eps_s)/eps_a) counters --
  // the paper's "1000 counters become 1001" example.
  counters_ = p_.counters_override != 0
                  ? p_.counters_override
                  : static_cast<std::size_t>(std::ceil((1.0 + eps_s_) / eps_a_));
  z_corr_ = z_value(1.0 - p_.delta / 8.0);

  hh_.reserve(H_);
  for (std::uint32_t d = 0; d < H_; ++d) hh_.emplace_back(counters_);

  name_ = std::string(to_string(mode_));
  if (mode_ != LatticeMode::kMst && V_ != H_) {
    // Annotate non-default V as in the paper ("10-RHHH" for V = 10H).
    if (V_ % H_ == 0) {
      name_ = std::to_string(V_ / H_) + "-" + name_;
    } else {
      name_ += "(V=" + std::to_string(V_) + ")";
    }
  }
  if (p_.r > 1) name_ += "(r=" + std::to_string(p_.r) + ")";
}

std::uint32_t LatticeHhh::resolved_V(const Hierarchy& h, LatticeMode mode,
                                              const LatticeParams& p) {
  const auto H = static_cast<std::uint32_t>(h.size());
  if (h.size() >= (1u << 16)) {
    // update_batch packs the lattice node into 16 bits of a pick word; every
    // shipped hierarchy is orders of magnitude below this.
    throw std::invalid_argument("LatticeHhh: hierarchy size must be < 65536");
  }
  if (!(p.eps > 0.0) || p.eps >= 1.0) {
    throw std::invalid_argument("LatticeHhh: eps must be in (0,1)");
  }
  if (!(p.delta > 0.0) || p.delta >= 1.0) {
    throw std::invalid_argument("LatticeHhh: delta must be in (0,1)");
  }
  if (p.r == 0) throw std::invalid_argument("LatticeHhh: r must be >= 1");

  const std::uint32_t V = (p.V == 0) ? H : p.V;
  if (V < H) throw std::invalid_argument("LatticeHhh: V must be >= H");
  if (mode != LatticeMode::kRhhh && p.r != 1) {
    throw std::invalid_argument("LatticeHhh: r applies to RHHH only");
  }
  return mode == LatticeMode::kMst ? H : V;  // MST: V is unused by the update rule
}

void LatticeHhh::apply_survivors() {
  // Stage 3: replay the compacted work list against the per-node summaries.
  // Survivors sit in packet order and each node's summary is an independent
  // structure, so the resulting state is byte-identical to the per-packet
  // interleaving. Index slots are prefetched `D` apply steps ahead and
  // counter cells D/2 ahead (the cell address is a dependent load through
  // the index, so its prefetch runs at a shorter distance, once the slot
  // line has had time to arrive).
  const std::size_t m = survivors_.size();
  const std::size_t far = p_.prefetch_distance;
  const std::size_t near = (far + 1) / 2;
  for (std::size_t j = 0; j < m; ++j) {
    if (far != 0 && j + far < m) {
      const Survivor& s = survivors_[j + far];
      hh_[s.node].prefetch(s.hash);
    }
    if (far != 0 && j + near < m) {
      const Survivor& s = survivors_[j + near];
      hh_[s.node].prefetch_counter(s.hash);
    }
    const Survivor& s = survivors_[j];
    hh_[s.node].increment_hashed(s.mkey, s.hash, 1);
  }
  updates_ += m;
}

void LatticeHhh::update_batch(const Key128* keys, std::size_t n) {
  if (n == 0) return;
  n_ += n;
  switch (mode_) {
    case LatticeMode::kRhhh: {
      // Stage 1: block-RNG with branchless compaction. The generator chain
      // is serial (state-carried), so it is the loop's latency bound; the
      // Lemire multiply-shift reduction and the pick store ride for free in
      // its shadow. Compaction is a blind store plus a flag add -- no
      // data-dependent branch, so the ~H/V random "survivor" pattern (1 in
      // 10 for 10-RHHH) costs zero mispredicts, unlike the per-packet
      // path's d < H branch. Draw i*r+j is packet i's j-th draw -- exactly
      // the sequence n per-packet update() calls would consume.
      const std::size_t total_draws = n * p_.r;
      picks_.resize(total_draws);
      std::uint64_t* pk = picks_.data();
      const std::uint64_t v = V_;
      std::size_t m = 0;
      for (std::size_t i = 0; i < total_draws; ++i) {
        const auto d = static_cast<std::uint32_t>(((rng_() >> 32) * v) >> 32);
        // Dead entries (d >= H) are overwritten by the next iteration; only
        // pk[0..m) is ever read, and those all carry d < H (< 2^16).
        pk[m] = (static_cast<std::uint64_t>(i) << 16) | d;
        m += d < H_ ? 1 : 0;
      }
      // Stage 2: survivor build over the compacted picks only -- a passing
      // draw pays its mask + hash here, once, off the probe path.
      const std::uint32_t r = p_.r;
      survivors_.resize(m);
      for (std::size_t j = 0; j < m; ++j) {
        const std::uint64_t e = pk[j];
        const auto d = static_cast<std::uint32_t>(e & 0xffff);
        const auto di = static_cast<std::size_t>(e >> 16);
        const std::size_t pkt = r == 1 ? di : di / r;
        const Key128 mkey = h_->mask_key(d, keys[pkt]);
        survivors_[j] = Survivor{d, static_cast<std::uint32_t>(pkt),
                                 SpaceSaving<Key128>::hash_of(mkey), mkey};
      }
      break;
    }
    case LatticeMode::kMst: {
      // Every packet updates all H nodes: the "survivors" are all (packet,
      // node) pairs, which still amortizes the per-node mask + hash compute
      // away from the probes and lets the apply loop prefetch across the
      // whole H*n sequence.
      survivors_.resize(n * H_);
      std::size_t w = 0;
      for (std::size_t i = 0; i < n; ++i) {
        for (std::uint32_t d = 0; d < H_; ++d) {
          const Key128 mkey = h_->mask_key(d, keys[i]);
          survivors_[w++] = Survivor{d, static_cast<std::uint32_t>(i),
                                     SpaceSaving<Key128>::hash_of(mkey), mkey};
        }
      }
      break;
    }
    case LatticeMode::kSampledMst: {
      // One draw per packet (same order as per-packet update()), compacted
      // branchlessly as in kRhhh; a sampled packet fans out across all H
      // nodes in stage 2.
      picks_.resize(n);
      std::uint64_t* pk = picks_.data();
      const std::uint64_t v = V_;
      std::size_t m = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const auto d = static_cast<std::uint32_t>(((rng_() >> 32) * v) >> 32);
        pk[m] = i;
        m += d < H_ ? 1 : 0;
      }
      survivors_.resize(m * H_);
      std::size_t w = 0;
      for (std::size_t j = 0; j < m; ++j) {
        const auto pkt = static_cast<std::size_t>(pk[j]);
        for (std::uint32_t d = 0; d < H_; ++d) {
          const Key128 mkey = h_->mask_key(d, keys[pkt]);
          survivors_[w++] = Survivor{d, static_cast<std::uint32_t>(pkt),
                                     SpaceSaving<Key128>::hash_of(mkey), mkey};
        }
      }
      break;
    }
  }
  apply_survivors();
}

void LatticeHhh::update_weighted(Key128 x, std::uint64_t w) {
  if (w == 0) return;
  n_ += w;
  switch (mode_) {
    case LatticeMode::kRhhh:
      for (std::uint32_t i = 0; i < p_.r; ++i) {
        const std::uint32_t d = rng_.bounded(V_);
        if (d < H_) {
          hh_[d].increment(h_->mask_key(d, x), w);
          ++updates_;
        }
      }
      break;
    case LatticeMode::kMst:
      for (std::uint32_t d = 0; d < H_; ++d) {
        hh_[d].increment(h_->mask_key(d, x), w);
      }
      updates_ += H_;
      break;
    case LatticeMode::kSampledMst:
      if (rng_.bounded(V_) < H_) {
        for (std::uint32_t d = 0; d < H_; ++d) {
          hh_[d].increment(h_->mask_key(d, x), w);
        }
        updates_ += H_;
      }
      break;
  }
}

double LatticeHhh::correction() const noexcept {
  if (mode_ == LatticeMode::kMst) return 0.0;
  // Theorems 6.11 / 6.15: 2 * Z_{1-delta/8} * sqrt(N * V).
  return 2.0 * z_corr_ *
         std::sqrt(static_cast<double>(n_) * static_cast<double>(V_));
}

double LatticeHhh::psi() const {
  if (mode_ == LatticeMode::kMst) return 0.0;
  // psi = Z_{1 - delta_s/2} * V * eps_s^-2 (Theorem 6.3); r draws per packet
  // converge r times faster (Corollary 6.8).
  const double z = z_value(1.0 - 0.5 * delta_s_);
  return z * static_cast<double>(V_) / (eps_s_ * eps_s_) /
         static_cast<double>(p_.r);
}

HhhSet LatticeHhh::output(double theta) const {
  HhhSet P(h_->size());
  if (n_ == 0) return P;
  const double N = static_cast<double>(n_);
  const double thresh = theta * N;
  const double corr = correction();

  const UpperEstimate glb_upper = [this](const Prefix& q) {
    return scale_ * static_cast<double>(hh_[q.node].upper(q.key));
  };

  // Levels from fully specified (0) to fully general (Definition 8's order).
  for (int level = 0; level < h_->num_levels(); ++level) {
    for (const std::uint32_t node : h_->nodes_at_level(level)) {
      hh_[node].for_each([&](const Key128& key, std::uint64_t up, std::uint64_t lo) {
        const Prefix p{node, key};
        const double f_hi = scale_ * static_cast<double>(up);
        const double f_lo = scale_ * static_cast<double>(lo);
        // Candidates whose upper bound plus sampling slack cannot reach the
        // threshold have (w.h.p.) true conditioned frequency below it --
        // their admission could only come from inclusion-exclusion bound
        // slop (calcPred > 0), so skipping them is sound and trims false
        // positives. In one dimension calcPred <= 0 makes this exact.
        if (f_hi + corr < thresh) return;
        const auto g_set = best_generalized(*h_, p, P);
        const double c_hat =
            f_hi + calc_pred(*h_, p, P, g_set, glb_upper) + corr;
        if (c_hat >= thresh) {
          P.add(HhhCandidate{p, f_hi, f_lo, f_hi, c_hat});
        }
      });
    }
  }
  return P;
}

namespace {
constexpr const char* kMergeMismatch =
    "LatticeHhh::merge: instances must share hierarchy, mode, V and r";
}  // namespace

void LatticeHhh::merge(const LatticeHhh& other) {
  if (!mergeable_with(other)) throw std::invalid_argument(kMergeMismatch);
  for (std::uint32_t d = 0; d < H_; ++d) hh_[d].merge(other.hh_[d]);
  n_ += other.n_;
  updates_ += other.updates_;
}

void LatticeHhh::require_mergeable(LatticeMode mode,
                                            const LatticeParams& p) const {
  const std::uint32_t V = resolved_V(*h_, mode, p);
  if (mode != mode_ || V != V_ || p.r != p_.r) {
    throw std::invalid_argument(kMergeMismatch);
  }
}

void LatticeHhh::merge_node(std::uint32_t node, const Roster<Key128>& other) {
  if (node >= H_) throw std::invalid_argument("LatticeHhh::merge_node: node out of range");
  hh_[node].merge(other);
}

std::vector<BackendProbe> LatticeHhh::health_probes() const {
  std::vector<BackendProbe> out;
  out.reserve(H_);
  for (std::uint32_t d = 0; d < H_; ++d) out.push_back(hh_[d].probe());
  return out;
}

void LatticeHhh::restore_node(std::uint32_t node,
                                       std::span<const HhEntry<Key128>> entries,
                                       std::uint64_t total) {
  if (node >= H_) {
    throw std::invalid_argument("LatticeHhh::restore_node: node out of range");
  }
  hh_[node].load(entries, total);
}

void LatticeHhh::clear() {
  for (auto& inst : hh_) inst.clear();
  n_ = 0;
  updates_ = 0;
  rng_ = Xoroshiro128(p_.seed);
}

std::unique_ptr<RhhhSpaceSaving> make_rhhh(const Hierarchy& h, LatticeParams p) {
  return std::make_unique<RhhhSpaceSaving>(h, LatticeMode::kRhhh, p);
}

std::unique_ptr<RhhhSpaceSaving> make_10rhhh(const Hierarchy& h, LatticeParams p) {
  p.V = 10 * static_cast<std::uint32_t>(h.size());
  return std::make_unique<RhhhSpaceSaving>(h, LatticeMode::kRhhh, p);
}

std::unique_ptr<RhhhSpaceSaving> make_mst(const Hierarchy& h, LatticeParams p) {
  return std::make_unique<RhhhSpaceSaving>(h, LatticeMode::kMst, p);
}

}  // namespace rhhh
