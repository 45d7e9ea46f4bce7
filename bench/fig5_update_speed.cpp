// Figure 5: update speed (million updates per second) vs epsilon, six
// panels: {SanJose14, Chicago16} x {1D bytes H=5, 1D bits H=33, 2D bytes
// H=25}; 95% Student-t confidence intervals over repeated runs, as in the
// paper (Section 4.3).
//
// Expected shape: RHHH and 10-RHHH are flat in both eps and H; MST pays a
// factor ~H; the ancestry tries speed UP as eps shrinks (fewer
// compressions) but stay well below RHHH, and degrade with larger H.
// Paper speedups at H=33: up to 21x (RHHH) and 62x (10-RHHH).
#include <cstdio>
#include <vector>

#include "common/bench_common.hpp"

using namespace rhhh;
using namespace rhhh::bench;

namespace {

double mpps_once(HhhContender& alg, const std::vector<Key128>& keys) {
  alg.clear();
  const double t0 = now_sec();
  for (const Key128& k : keys) alg.update(k);
  const double dt = now_sec() - t0;
  return static_cast<double>(keys.size()) / dt / 1e6;
}

/// Same stream through update_batch in `batch`-sized chunks -- the staged
/// pipeline the engine workers run (byte-identical results by contract).
double mpps_batched_once(LatticeHhh& alg, const std::vector<Key128>& keys,
                         std::size_t batch) {
  alg.clear();
  const double t0 = now_sec();
  for (std::size_t i = 0; i < keys.size(); i += batch) {
    alg.update_batch(keys.data() + i, std::min(batch, keys.size() - i));
  }
  const double dt = now_sec() - t0;
  return static_cast<double>(keys.size()) / dt / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Args::parse(argc, argv);
  print_figure_header("Figure 5", "Update speed (M packets/s) vs eps", args);

  const std::vector<std::string> traces = {"sanjose14", "chicago16"};
  struct Panel {
    const char* name;
    Hierarchy h;
  };
  std::vector<Panel> panels;
  panels.push_back({"1D Bytes (H=5)", Hierarchy::ipv4_1d(Granularity::kByte)});
  panels.push_back({"1D Bits (H=33)", Hierarchy::ipv4_1d(Granularity::kBit)});
  panels.push_back({"2D Bytes (H=25)", Hierarchy::ipv4_2d(Granularity::kByte)});

  const std::vector<double> eps_values = {0.0003, 0.001, 0.003, 0.01};
  const auto n = static_cast<std::size_t>(400000 * args.scale);

  for (const std::string& trace : traces) {
    for (const Panel& panel : panels) {
      const auto& keys = trace_keys(panel.h, trace, n);
      std::printf("\n-- %s - %s  (M updates/s, 95%% CI over %d runs) --\n",
                  trace.c_str(), panel.name, args.runs);
      std::vector<std::string> head = {"algorithm \\ eps"};
      for (const double e : eps_values) head.push_back(fmt(e));
      head.emplace_back("speedup@min-eps");
      print_row(head);

      std::vector<std::vector<RunningStats>> table;
      std::vector<std::string> names;
      for (const double eps : eps_values) {
        auto roster = paper_roster(panel.h, eps, args.delta, args.seed);
        if (table.empty()) {
          table.resize(roster.size());
          for (const auto& alg : roster) names.emplace_back(alg->name());
        }
        for (std::size_t a = 0; a < roster.size(); ++a) {
          RunningStats s;
          for (int r = 0; r < args.runs; ++r) s.add(mpps_once(*roster[a], keys));
          table[a].push_back(s);
        }
      }
      // Speedup over MST at the smallest eps (the paper's headline ratios).
      const double mst_speed = table[2].front().mean();
      for (std::size_t a = 0; a < table.size(); ++a) {
        std::vector<std::string> row = {names[a]};
        for (const RunningStats& s : table[a]) row.push_back(ci_cell(s));
        row.push_back(xcell(fmt(table[a].front().mean() / mst_speed)));
        print_row(row);
      }
    }
  }
  // Batched pipeline panel (appended so the per-packet sections above keep
  // their row positions for the perf-trajectory gate): the engine's
  // update_batch hot path vs per-packet update() on the 2D-bytes hierarchy.
  // Acceptance: 10-RHHH batched >= 1.3x its per-packet row.
  {
    const Hierarchy h2 = Hierarchy::ipv4_2d(Granularity::kByte);
    const auto& keys = trace_keys(h2, "chicago16", n);
    std::printf("\n-- chicago16 - 2D Bytes, batched update_batch(2048) vs"
                " per-packet (eps=0.001) --\n");
    print_row({"algorithm", "per-packet Mpps", "batched Mpps", "speedup"});
    const struct {
      const char* name;
      std::uint32_t v_mult;
    } cfgs[] = {{"RHHH", 1}, {"10-RHHH", 10}};
    for (const auto& c : cfgs) {
      LatticeParams lp;
      lp.eps = 0.001;
      lp.delta = args.delta;
      lp.seed = args.seed;
      lp.V = c.v_mult * static_cast<std::uint32_t>(h2.size());
      // Per-packet through the roster interface, as in every panel above.
      LatticeContender alg(h2, LatticeMode::kRhhh, lp);
      RunningStats pp, bt;
      for (int r = 0; r < args.runs; ++r) pp.add(mpps_once(alg, keys));
      for (int r = 0; r < args.runs; ++r) {
        bt.add(mpps_batched_once(alg.lattice(), keys, 2048));
      }
      print_row({c.name, ci_cell(pp), ci_cell(bt),
                 xcell(fmt(bt.mean() / pp.mean()))});
    }
  }
  std::printf("\n(expected shape: RHHH/10-RHHH flat and fastest; MST ~H times\n"
              " slower; ancestry tries improve slightly at small eps; the\n"
              " batched panel's 10-RHHH speedup should hold >= 1.3x)\n");
  return 0;
}
