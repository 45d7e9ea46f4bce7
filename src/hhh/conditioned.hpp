// Conditioned-frequency estimation shared by the lattice algorithms:
// G(p|P) (Definition 14 / Definition 2) and calcPred (Algorithms 2 and 3).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "hhh/hhh_set.hpp"
#include "hierarchy/hierarchy.hpp"

namespace rhhh {

/// G(p|P): indices (into P.items()) of the members of P that are strictly
/// generalized by p with no other member of P strictly between them and p.
[[nodiscard]] std::vector<std::uint32_t> best_generalized(const Hierarchy& h,
                                                          const Prefix& p,
                                                          const HhhSet& P);

/// Upper-bound estimate for an arbitrary prefix's frequency (used for the
/// glb add-back in two dimensions, where the glb prefix is usually not a
/// member of P).
using UpperEstimate = std::function<double(const Prefix&)>;

/// calcPred (Algorithm 2 in one dimension, Algorithm 3 in two):
///   R = - sum_{h in G} f_lo(h)
///     + sum_{pairs h,h' in G, glb defined, no third member of G generalizes
///            the glb} f_hi(glb(h,h'))            (2D only)
/// The caller adds f_hi(p) and the sampling-slack term (Algorithm 1 lines
/// 12-13).
[[nodiscard]] double calc_pred(const Hierarchy& h, const Prefix& p, const HhhSet& P,
                               const std::vector<std::uint32_t>& g_set,
                               const UpperEstimate& upper_estimate);

}  // namespace rhhh
