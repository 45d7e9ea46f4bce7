// The statistical conformance suite's operating points, shared by
// test_conformance.cpp (the lattice modes) and test_baselines.cpp (the
// ancestry tries), so both sides run on exactly the same seeded streams.
#pragma once

#include <cstdint>

#include "core/monitor.hpp"

namespace rhhh::conformance {

struct OperatingPoint {
  const char* label;
  HierarchyKind hierarchy;
  AlgorithmKind randomized;  ///< the randomized mode under test at this point
  double eps;
  double delta;
  std::uint32_t V;  ///< 0 = V = H
  double theta;
  std::uint64_t n;
  const char* trace;
  std::uint64_t seed;
};

inline const OperatingPoint kPoints[] = {
    // 1D bytes (H = 5): the cheapest hierarchy, tight eps.
    {"1d_rhhh_VH", HierarchyKind::kIpv4OneDimBytes, AlgorithmKind::kRhhh, 0.04,
     0.05, 0, 0.10, 400000, "chicago16", 11},
    // V = 10H: the paper's throughput configuration; psi grows with V, so
    // the stream is longer.
    {"1d_rhhh_V10H", HierarchyKind::kIpv4OneDimBytes, AlgorithmKind::kRhhh, 0.04,
     0.05, 50, 0.05, 1200000, "sanjose14", 12},
    // The Section 1 strawman at V = 5H.
    {"1d_sampledmst_V5H", HierarchyKind::kIpv4OneDimBytes,
     AlgorithmKind::kSampledMst, 0.04, 0.05, 25, 0.10, 600000, "chicago15", 13},
    // 2D bytes (H = 25): the paper's main evaluated hierarchy.
    {"2d_rhhh_VH", HierarchyKind::kIpv4TwoDimBytes, AlgorithmKind::kRhhh, 0.05,
     0.05, 0, 0.10, 500000, "sanjose13", 14},
};

}  // namespace rhhh::conformance
