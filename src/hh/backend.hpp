// Plain data shared by the Space-Saving counter summary (src/hh) and its
// readers: the entry and flat-roster forms, and the health probe.
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

/// Cheap introspection snapshot of one Space-Saving instance, read at probe
/// time (rotation / scrape) -- never on the packet path. The estimator
/// health layer (src/obs/health) folds per-node probes into per-window
/// accuracy certificates. Plain data only: this header rides in every
/// hot-path TU.
struct BackendProbe {
  std::uint64_t total = 0;      ///< arrivals into this instance
  std::uint64_t min_count = 0;  ///< untracked upper bound (min_bound())
  std::uint64_t evictions = 0;  ///< cumulative roster evictions
  std::size_t occupancy = 0;    ///< tracked counters
  std::size_t capacity = 0;     ///< roster slots
  double saturation = 0.0;      ///< roster fill, occupancy / capacity
};

}  // namespace rhhh
