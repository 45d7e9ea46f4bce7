// Ablation: the batched hot-path update pipeline.
//
// LatticeHhh::update_batch stages each popped batch through three passes --
// block-RNG (every draw for the batch in one tight Lemire-bounded loop),
// survivor compaction (keep only d < H), and a prefetched apply loop that
// walks survivors with Space-Saving's hash/probe split -- while remaining
// byte-identical to per-packet update() (tests/test_batch.cpp pins this).
// This bench isolates where the speedup comes from and what it costs:
//
//   * batch size sweep: per-packet baseline vs update_batch at growing
//     batch sizes (amortization of the RNG pass and the survivor list).
//   * prefetch distance sweep: the apply-loop lookahead at a fixed batch
//     size, including 0 (prefetching disabled -- isolates block-RNG +
//     compaction from memory-level parallelism).
//   * mode panel: batched speedup across the lattice modes. 10-RHHH is the
//     paper's deployment point: ~9/10 packets die in compaction, so the
//     apply loop sees a dense stream of real work.
//   * V=H apply panel: RHHH with V=H, where every packet survives and
//     updates one Space-Saving node, in ns per packet at eps 0.01 and
//     0.001 -- the cost of the per-node index and counter layout.
//
// The "speedup" column is the acceptance metric: 10-RHHH batched over
// per-packet must hold >= 1.3x single-core.
#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_common.hpp"
#include "hhh/lattice_hhh.hpp"
#include "util/random.hpp"

using namespace rhhh;
using namespace rhhh::bench;

namespace {

/// One pass over `keys`; batch = 0 means the per-packet update() path,
/// otherwise update_batch in `batch`-sized chunks.
void feed(RhhhSpaceSaving& alg, const std::vector<Key128>& keys, std::size_t batch) {
  if (batch == 0) {
    for (const Key128& k : keys) alg.update(k);
  } else {
    for (std::size_t i = 0; i < keys.size(); i += batch) {
      alg.update_batch(keys.data() + i, std::min(batch, keys.size() - i));
    }
  }
}

/// Mpps over `runs` timed passes of one lattice instance: construct once,
/// warm the counter arrays with an untimed quarter-pass, then clear + time
/// (clear() keeps the allocations, so runs measure steady state, not page
/// faults). `ns_per_pkt`, if given, collects the same passes in ns/packet.
RunningStats measure(const Hierarchy& h, LatticeMode mode, LatticeParams lp,
                     const std::vector<Key128>& keys, std::size_t batch,
                     int runs, std::uint64_t seed,
                     RunningStats* ns_per_pkt = nullptr) {
  lp.seed = seed;
  RhhhSpaceSaving alg(h, mode, lp);
  const std::vector<Key128> warm(keys.begin(),
                                 keys.begin() + static_cast<std::ptrdiff_t>(
                                                    keys.size() / 4));
  feed(alg, warm, batch);
  RunningStats s;
  for (int r = 0; r < runs; ++r) {
    alg.clear();
    const double t0 = now_sec();
    feed(alg, keys, batch);
    const double dt = now_sec() - t0;
    if (alg.stream_length() != keys.size()) std::printf("?");  // keep alg alive
    s.add(static_cast<double>(keys.size()) / dt / 1e6);
    if (ns_per_pkt != nullptr) ns_per_pkt->add(dt * 1e9 / static_cast<double>(keys.size()));
  }
  return s;
}

std::string speedup_cell(const RunningStats& b, const RunningStats& base) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fx", b.mean() / base.mean());
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = Args::parse(argc, argv);
  print_figure_header(
      "Batch pipeline",
      "update_batch staged pipeline: batch size, prefetch distance, mode",
      args);

  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  const auto n = static_cast<std::size_t>(8e6 * args.scale);
  const std::vector<Key128>& keys = trace_keys(h, "chicago16", n);

  LatticeParams lp;
  // Pin eps to fig5's paper-scale operating point: at loose eps the
  // counter arrays are L1-resident and the prefetch stage has nothing to
  // hide, which would understate the pipeline the engine actually runs.
  lp.eps = 0.001;
  lp.delta = args.delta;
  lp.V = 10 * static_cast<std::uint32_t>(h.size());  // 10-RHHH

  // One unmeasured run of the first configuration: in a cold process the
  // first measured cell otherwise absorbs page faults and clock ramp-up, and
  // its CI grew wide enough to hide any regression from the trajectory gate.
  (void)measure(h, LatticeMode::kRhhh, lp, keys, 0, 1, args.seed);

  std::printf("\n-- batch size, 10-RHHH / Space-Saving, 2D bytes (0 = per-packet) --\n");
  print_row({"batch", "Mpps (95% CI)", "speedup"});
  const RunningStats base =
      measure(h, LatticeMode::kRhhh, lp, keys, 0, args.runs, args.seed);
  print_row({"per-packet", ci_cell(base), "1.00x"});
  for (const std::size_t batch : {32u, 256u, 2048u, 16384u}) {
    const RunningStats s =
        measure(h, LatticeMode::kRhhh, lp, keys, batch, args.runs, args.seed);
    print_row({std::to_string(batch), ci_cell(s), speedup_cell(s, base)});
  }

  std::printf("\n-- prefetch distance, 10-RHHH / Space-Saving, batch 2048 --\n");
  print_row({"distance", "Mpps (95% CI)", "speedup vs per-packet"});
  for (const std::uint32_t dist : {0u, 2u, 4u, 8u, 16u, 32u}) {
    LatticeParams dlp = lp;
    dlp.prefetch_distance = dist;
    const RunningStats s =
        measure(h, LatticeMode::kRhhh, dlp, keys, 2048, args.runs, args.seed);
    print_row({std::to_string(dist), ci_cell(s), speedup_cell(s, base)});
  }

  std::printf("\n-- lattice mode, batch 2048 vs per-packet --\n");
  print_row({"config", "per-packet Mpps", "batched Mpps", "speedup"});
  const struct {
    const char* name;
    LatticeMode mode;
    std::uint32_t v_mult;
  } modes[] = {
      {"RHHH (V=H)", LatticeMode::kRhhh, 1},
      {"10-RHHH", LatticeMode::kRhhh, 10},
      {"MST", LatticeMode::kMst, 1},
      {"Sampled-MST (V=10H)", LatticeMode::kSampledMst, 10},
  };
  for (const auto& m : modes) {
    LatticeParams mlp = lp;
    mlp.V = m.v_mult * static_cast<std::uint32_t>(h.size());
    const RunningStats pp = measure(h, m.mode, mlp, keys, 0, args.runs, args.seed);
    const RunningStats bt = measure(h, m.mode, mlp, keys, 2048, args.runs, args.seed);
    print_row({std::string("SpaceSaving/") + m.name, ci_cell(pp), ci_cell(bt),
               speedup_cell(bt, pp)});
  }

  // Appended after the older panels so their rows keep their positions in
  // the trajectory baseline.
  std::printf("\n-- RHHH (V=H) apply, batch 1024, by eps --\n");
  print_row({"config", "apply ns/pkt (95% CI)", "counters/node"});
  const struct {
    const char* name;
    double eps;
  } points[] = {{"V=H eps=0.01", 0.01}, {"V=H eps=0.001", 0.001}};
  for (const auto& pt : points) {
    LatticeParams vlp = lp;
    vlp.eps = pt.eps;
    vlp.V = static_cast<std::uint32_t>(h.size());
    RunningStats ns;
    (void)measure(h, LatticeMode::kRhhh, vlp, keys, 1024, args.runs, args.seed, &ns);
    const RhhhSpaceSaving shape(h, LatticeMode::kRhhh, vlp);
    print_row({pt.name, ci_cell(ns), std::to_string(shape.instance(0).capacity())});
  }

  std::printf(
      "\n(expected shape: speedup grows with batch size and saturates once\n"
      " the block-RNG pass amortizes -- ~2048 is plenty; distance 0 shows\n"
      " the pipeline's non-prefetch share, with the gap to ~8 the\n"
      " memory-level-parallelism win; 10-RHHH gains the most because\n"
      " compaction deletes ~9/10 packets before any counter work, while MST\n"
      " gains least -- every packet updates all H nodes either way, so only\n"
      " prefetching helps; V=H apply costs more per packet at the tighter\n"
      " eps, whose larger nodes miss in cache more often. Acceptance: 10-RHHH\n"
      " batched >= 1.3x per-packet.)\n");
  return 0;
}
