#include "core/monitor.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace rhhh {

std::string_view to_string(HierarchyKind k) noexcept {
  switch (k) {
    case HierarchyKind::kIpv4OneDimBytes: return "1D-bytes";
    case HierarchyKind::kIpv4OneDimBits: return "1D-bits";
    case HierarchyKind::kIpv4TwoDimBytes: return "2D-bytes";
    case HierarchyKind::kIpv4TwoDimNibbles: return "2D-nibbles";
    case HierarchyKind::kIpv6Bytes: return "ipv6-bytes";
    case HierarchyKind::kIpv6Nibbles: return "ipv6-nibbles";
  }
  return "?";
}

std::string_view to_string(AlgorithmKind k) noexcept {
  switch (k) {
    case AlgorithmKind::kRhhh: return "RHHH";
    case AlgorithmKind::kTenRhhh: return "10-RHHH";
    case AlgorithmKind::kMst: return "MST";
    case AlgorithmKind::kSampledMst: return "Sampled-MST";
  }
  return "?";
}

Hierarchy make_hierarchy(HierarchyKind k) {
  switch (k) {
    case HierarchyKind::kIpv4OneDimBytes: return Hierarchy::ipv4_1d(Granularity::kByte);
    case HierarchyKind::kIpv4OneDimBits: return Hierarchy::ipv4_1d(Granularity::kBit);
    case HierarchyKind::kIpv4TwoDimBytes: return Hierarchy::ipv4_2d(Granularity::kByte);
    case HierarchyKind::kIpv4TwoDimNibbles:
      return Hierarchy::ipv4_2d(Granularity::kNibble);
    case HierarchyKind::kIpv6Bytes: return Hierarchy::ipv6_1d(Granularity::kByte);
    case HierarchyKind::kIpv6Nibbles: return Hierarchy::ipv6_1d(Granularity::kNibble);
  }
  throw std::invalid_argument("make_hierarchy: unknown kind");
}

std::string_view to_string(OverflowPolicy p) noexcept {
  switch (p) {
    case OverflowPolicy::kBlock: return "block";
    case OverflowPolicy::kDropTail: return "drop-tail";
  }
  return "?";
}

std::string_view to_string(FsyncMode m) noexcept {
  switch (m) {
    case FsyncMode::kNone: return "none";
    case FsyncMode::kPerRoll: return "per-roll";
    case FsyncMode::kPerRecord: return "per-record";
  }
  return "?";
}

std::pair<LatticeMode, LatticeParams> lattice_config_of(const Hierarchy& h,
                                                        const MonitorConfig& cfg) {
  LatticeParams lp;
  lp.eps = cfg.eps;
  lp.delta = cfg.delta;
  lp.V = cfg.V;
  lp.r = cfg.r;
  lp.seed = cfg.seed;
  switch (cfg.algorithm) {
    case AlgorithmKind::kRhhh:
      return {LatticeMode::kRhhh, lp};
    case AlgorithmKind::kTenRhhh:
      if (lp.V == 0) lp.V = 10 * static_cast<std::uint32_t>(h.size());
      return {LatticeMode::kRhhh, lp};
    case AlgorithmKind::kMst:
      return {LatticeMode::kMst, lp};
    case AlgorithmKind::kSampledMst:
      return {LatticeMode::kSampledMst, lp};
  }
  throw std::invalid_argument("lattice_config_of: unknown kind");
}

std::unique_ptr<LatticeHhh> make_algorithm(const Hierarchy& h, const MonitorConfig& cfg) {
  const auto [mode, lp] = lattice_config_of(h, cfg);
  return std::make_unique<LatticeHhh>(h, mode, lp);
}

HhhMonitor::HhhMonitor(MonitorConfig cfg)
    : cfg_(cfg),
      hierarchy_(std::make_unique<Hierarchy>(make_hierarchy(cfg.hierarchy))),
      alg_(make_algorithm(*hierarchy_, cfg)) {}

std::vector<std::string> HhhMonitor::report(double theta) const {
  HhhSet set = query(theta);
  std::vector<const HhhCandidate*> sorted;
  sorted.reserve(set.size());
  for (const HhhCandidate& c : set) sorted.push_back(&c);
  std::sort(sorted.begin(), sorted.end(),
            [](const HhhCandidate* a, const HhhCandidate* b) {
              return a->f_est > b->f_est;
            });
  std::vector<std::string> lines;
  lines.reserve(sorted.size());
  const double n = static_cast<double>(std::max<std::uint64_t>(packets(), 1));
  for (const HhhCandidate* c : sorted) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "  f=[%.0f, %.0f] (%5.2f%%)  ", c->f_lo,
                  c->f_hi, 100.0 * c->f_est / n);
    lines.push_back(hierarchy_->format(c->prefix) + buf);
  }
  return lines;
}

}  // namespace rhhh
