// Common vocabulary for heavy-hitter counter backends.
//
// RHHH is backend-agnostic (paper Definition 4): any counter algorithm that
// solves (eps, delta)-Frequency Estimation and can enumerate its heavy
// hitters plugs into the lattice. Every backend in src/hh implements:
//
//   void   increment(const Key&, uint64_t w)   -- process one arrival
//   uint64_t upper(const Key&) const           -- upper bound on arrivals
//   uint64_t lower(const Key&) const           -- lower bound on arrivals
//   uint64_t total() const                     -- arrivals seen
//   void   for_each(f) const                   -- f(key, upper, lower) per
//                                                  tracked candidate
//   std::vector<HhEntry<Key>> entries() const
//   void   clear()
//   static B make(const BackendConfig&)        -- uniform construction
//
// Bounds contract: lower(k) <= f_k <= upper(k) for every key (for the
// sketch backend the upper/lower bounds hold with probability 1 - delta_a,
// which Definition 4 permits).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace rhhh {

template <class Key>
struct HhEntry {
  Key key{};
  std::uint64_t upper = 0;
  std::uint64_t lower = 0;
};

/// A counter summary in flat form: its entries in counter-array order (the
/// order for_each() visits), its arrivals total and evictions, and the
/// capacity it was kept under. Space-Saving merges from this form, so a
/// summary held only as bytes (an archived window) merges without being
/// built first.
template <class Key>
struct Roster {
  std::span<const HhEntry<Key>> entries;
  std::uint64_t total = 0;
  std::uint64_t evictions = 0;
  std::size_t capacity = 0;
};

/// Uniform construction parameters for all backends. `capacity` is the
/// number of tracked counters (Space-Saving / Misra-Gries); eps_a = 1 /
/// capacity is the equivalent additive-error parameter used by the
/// window/sketch backends.
struct BackendConfig {
  std::size_t capacity = 1000;
  double eps_a = 1e-3;
  double delta_a = 1e-3;  ///< only the sketch backend consumes this
  std::uint64_t seed = 0;
};

/// Cheap introspection snapshot of one backend instance, read at probe time
/// (rotation / scrape) -- never on the packet path. Backends that support
/// it expose `BackendProbe probe() const`; the estimator health layer
/// (src/obs/health) folds per-node probes into per-window accuracy
/// certificates. Plain data only: this header rides in every hot-path TU.
struct BackendProbe {
  std::uint64_t total = 0;      ///< arrivals into this instance
  std::uint64_t min_count = 0;  ///< Space-Saving untracked upper bound
  std::uint64_t evictions = 0;  ///< cumulative roster evictions (Space-Saving)
  std::size_t occupancy = 0;    ///< tracked counters / nonzero sketch cells
  std::size_t capacity = 0;     ///< roster slots / total sketch cells
  double saturation = 0.0;      ///< roster fill, or max per-row sketch fill
  double noise = 0.0;           ///< estimated collision noise (eps_a * total)
};

}  // namespace rhhh
