// Ablation: update cost vs hierarchy size H (Sections 1/2/7: prior work is
// Omega(H) per packet; IPv6 and 2D hierarchies make H grow, which is the
// paper's motivation for an O(1) algorithm).
//
// H sweep: 5 (1D IPv4 bytes), 17 (1D IPv6 bytes), 25 (2D IPv4 bytes),
// 33 (1D IPv4 bits), 33 (1D IPv6 nibbles), 81 (2D IPv4 nibbles).
// Reported: M updates/s for RHHH, 10-RHHH, MST, Partial Ancestry.
#include <cstdio>
#include <vector>

#include "common/bench_common.hpp"
#include "trace/address_model.hpp"
#include "trace/zipf.hpp"

using namespace rhhh;
using namespace rhhh::bench;

namespace {

/// IPv6 key stream with the same flow-popularity model as the presets.
std::vector<Key128> ipv6_keys(std::size_t n, std::uint64_t seed) {
  HierarchicalAddressModel model(seed, {1.25, 1.0, 0.85, 0.7});
  ZipfDistribution flows(1 << 20, 1.05);
  Xoroshiro128 rng(seed);
  std::vector<Key128> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(model.address6(flows(rng)).key());
  }
  return out;
}

double mpps(HhhContender& alg, const std::vector<Key128>& keys) {
  alg.clear();
  const double t0 = now_sec();
  for (const Key128& k : keys) alg.update(k);
  return static_cast<double>(keys.size()) / (now_sec() - t0) / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Args::parse(argc, argv);
  print_figure_header("Ablation: hierarchy-size scaling",
                      "update speed (M packets/s) vs H", args);

  struct Panel {
    std::string label;
    Hierarchy h;
    bool ipv6;
  };
  std::vector<Panel> panels;
  panels.push_back({"1D IPv4 bytes", Hierarchy::ipv4_1d(Granularity::kByte), false});
  panels.push_back({"1D IPv6 bytes", Hierarchy::ipv6_1d(Granularity::kByte), true});
  panels.push_back({"2D IPv4 bytes", Hierarchy::ipv4_2d(Granularity::kByte), false});
  panels.push_back({"1D IPv4 bits", Hierarchy::ipv4_1d(Granularity::kBit), false});
  panels.push_back({"1D IPv6 nibbles", Hierarchy::ipv6_1d(Granularity::kNibble), true});
  panels.push_back({"2D IPv4 nibbles", Hierarchy::ipv4_2d(Granularity::kNibble), false});

  const auto n = static_cast<std::size_t>(400000 * args.scale);
  print_row({"hierarchy", "H", "RHHH", "10-RHHH", "MST", "Partial-Anc."});

  for (const Panel& panel : panels) {
    const std::vector<Key128> keys =
        panel.ipv6 ? ipv6_keys(n, args.seed)
                   : trace_keys(panel.h, "chicago16", n);

    LatticeParams lp;
    lp.eps = args.eps;
    lp.delta = args.delta;
    lp.seed = args.seed;
    LatticeContender r1(panel.h, LatticeMode::kRhhh, lp);
    LatticeParams lp10 = lp;
    lp10.V = 10 * static_cast<std::uint32_t>(panel.h.size());
    LatticeContender r10(panel.h, LatticeMode::kRhhh, lp10);
    LatticeContender mst(panel.h, LatticeMode::kMst, lp);
    TrieHhh partial(panel.h, AncestryMode::kPartial, args.eps);

    RunningStats s1, s10, sm, sp;
    for (int r = 0; r < args.runs; ++r) {
      s1.add(mpps(r1, keys));
      s10.add(mpps(r10, keys));
      sm.add(mpps(mst, keys));
      sp.add(mpps(partial, keys));
    }
    print_row({panel.label, std::to_string(panel.h.size()), ci_cell(s1),
               ci_cell(s10), ci_cell(sm), ci_cell(sp)});
  }
  std::printf("\n(expected shape: RHHH/10-RHHH flat across H; MST and the trie\n"
              " degrade ~linearly in H -- the paper's IPv6 argument)\n");
  return 0;
}
