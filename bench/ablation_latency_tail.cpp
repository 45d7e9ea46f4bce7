// Ablation: per-packet latency tails -- the paper's core argument for O(1)
// *worst case* over O(1) *amortized* (Section 1): the strawman that samples
// packets w.p. H/V but then updates all H levels has the same average cost
// as RHHH yet a tail H times worse, which "could both delay the
// corresponding victim packet and possibly cause buffers to overflow".
//
// Reported: p50 / p99 / p99.9 / max per-update latency for RHHH,
// Sampled-MST (same sampling rate) and MST.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/bench_common.hpp"

using namespace rhhh;
using namespace rhhh::bench;

namespace {

struct Tail {
  double p50, p99, p999, max, mean;
};

Tail measure(LatticeHhh& alg, const std::vector<Key128>& keys) {
  std::vector<double> lat;
  lat.reserve(keys.size());
  for (const Key128& k : keys) {
    const double t0 = now_sec();
    alg.update(k);
    lat.push_back(now_sec() - t0);
  }
  std::sort(lat.begin(), lat.end());
  auto at = [&](double q) {
    return lat[static_cast<std::size_t>(q * (double(lat.size()) - 1))] * 1e9;
  };
  double sum = 0;
  for (const double v : lat) sum += v;
  return Tail{at(0.50), at(0.99), at(0.999), lat.back() * 1e9,
              sum / double(lat.size()) * 1e9};
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Args::parse(argc, argv);
  print_figure_header("Ablation: latency tail (O(1) worst case vs amortized)",
                      "per-update latency in ns, 2D bytes, chicago16", args);

  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  const auto n = static_cast<std::size_t>(1e6 * args.scale);
  const auto& keys = trace_keys(h, "chicago16", n);
  const auto H = static_cast<std::uint32_t>(h.size());

  // The paper's Section 1 strawman samples packets with probability 1/H and
  // feeds them to the O(H) algorithm -- the same *average* work as RHHH at
  // V = H (one counter update per packet), but concentrated in bursts.
  LatticeParams lp;
  lp.eps = args.eps;
  lp.delta = args.delta;
  lp.seed = args.seed;

  print_row({"algorithm", "mean", "p50", "p99", "p99.9", "max"});
  struct Entry {
    std::string name;
    std::unique_ptr<LatticeHhh> alg;
  };
  std::vector<Entry> entries;
  entries.push_back(
      {"RHHH V=H (O(1) worst)",
       std::make_unique<RhhhSpaceSaving>(h, LatticeMode::kRhhh, lp)});
  LatticeParams lp_strawman = lp;
  lp_strawman.V = H * H;  // sample w.p. H/V = 1/H, then update all H levels
  entries.push_back(
      {"Sampled-MST p=1/H",
       std::make_unique<RhhhSpaceSaving>(h, LatticeMode::kSampledMst, lp_strawman)});
  entries.push_back(
      {"MST (O(H))", std::make_unique<RhhhSpaceSaving>(h, LatticeMode::kMst, lp)});

  for (auto& e : entries) {
    const Tail t = measure(*e.alg, keys);
    print_row({e.name, fmt(t.mean), fmt(t.p50), fmt(t.p99), fmt(t.p999),
               fmt(t.max)});
  }
  std::printf("\n(expected shape: RHHH and the strawman share ~1 counter update\n"
              " per packet on average, but the strawman's p99/p99.9 jump ~Hx --\n"
              " the 'victim packets' of Section 1; MST is uniformly slow. Timer\n"
              " overhead adds a constant to every cell.)\n");
  return 0;
}
