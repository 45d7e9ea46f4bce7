// Ablation: windowed-engine throughput, burst-detection latency, and
// epoch-boundary drift vs worker count vs epoch size.
//
// The paper's motivating scenario (Section 1, realtime DDoS detection) at
// engine scale: W producer threads feed W worker shards of a windowed
// HhhEngine, with a burst planted at 60% of the stream (30% of subsequent
// traffic toward one /16 -> victim pair). Window epochs close every
// `epoch` records through the engine's own packet budget
// (EngineConfig::epoch_packets) -- the push that spends it posts a cut and
// each worker rotates its shard there, so the budget itself paces the run.
// The bench probes trend_snapshot()'s two-window emerging() every quarter
// epoch of ingested records.
//
// Columns: ingest throughput (Mpps, lossless blocking overflow, clock from
// first push until every record is consumed, rotation + probe quiesces
// included), detection latency in packets past burst start (kpkt), windows
// closed, measured boundary drift (mean ns from a cut's posting to the
// start of the last shard's rotation at it -- EngineStats drift
// telemetry), and drops. Smaller epochs detect sooner but quiesce more
// often; more workers push Mpps up until transport (or the host's core
// count) binds.
//
// A second, probe-free panel measures the drift of cut rotation alone: how
// far the slowest worker lags the producer.
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_common.hpp"
#include "engine/engine.hpp"
#include "net/ipv4.hpp"
#include "util/random.hpp"

using namespace rhhh;
using namespace rhhh::bench;

namespace {

struct SweepResult {
  RunningStats mpps;
  RunningStats drift_ns;  ///< per-run mean boundary drift
  int detected_runs = 0;
  std::uint64_t latency_sum = 0;  ///< over detected runs
  std::uint64_t windows = 0;      ///< last run (deterministic when lossless)
  std::uint64_t drops = 0;        ///< last run, same basis as windows
};

struct SweepInput {
  const Args& args;
  const Hierarchy& h;
  const std::vector<Key128>& keys;
  std::size_t burst_start;
  Ipv4 attack_net;
  Ipv4 victim;
  Prefix attack_bottom;
  double growth;
};

SweepResult run_config(const SweepInput& in, std::uint32_t workers,
                       std::size_t epoch, bool probes,
                       std::size_t ring_capacity = 1 << 16) {
  const Args& args = in.args;
  const std::size_t chunk = std::max<std::size_t>(epoch / 4, 1);
  SweepResult out;
  for (int r = 0; r < args.runs; ++r) {
    EngineConfig cfg;
    cfg.monitor.hierarchy = HierarchyKind::kIpv4TwoDimBytes;
    cfg.monitor.algorithm = AlgorithmKind::kRhhh;
    cfg.monitor.eps = args.eps;
    cfg.monitor.delta = args.delta;
    cfg.monitor.seed = args.seed + static_cast<std::uint64_t>(r);
    cfg.workers = workers;
    cfg.producers = workers;
    cfg.ring_capacity = ring_capacity;
    cfg.batch = 256;
    cfg.overflow = OverflowPolicy::kBlock;  // lossless: Mpps counts real work
    cfg.epoch_packets = epoch;              // the engine paces itself
    const std::unique_ptr<HhhEngine> eng = make_engine(cfg);
    eng->start();

    bool run_detected = false;
    std::uint64_t run_latency = 0;
    const auto probe = [&](std::size_t processed) {
      if (run_detected) return;
      const TrendSnapshot snap = eng->trend_snapshot();
      if (snap.sealed_windows() == 0) return;
      for (const EmergingPrefix& e : snap.emerging(args.theta, in.growth)) {
        if (e.share_now > 0.15 && e.growth() >= in.growth &&
            in.h.generalizes(e.now.prefix, in.attack_bottom)) {
          run_detected = true;
          run_latency =
              processed > in.burst_start ? processed - in.burst_start : 0;
          break;
        }
      }
    };

    const double t0 = now_sec();
    // Chunked ingest: W producer threads per quarter-epoch slice, a probe
    // after every slice. Rotation happens inside the engine whenever the
    // consumed budget crosses epoch_packets -- no pacing calls here.
    for (std::size_t lo = 0; lo < in.keys.size(); lo += chunk) {
      const std::size_t hi = std::min(lo + chunk, in.keys.size());
      std::vector<std::thread> producers;
      for (std::uint32_t p = 0; p < workers; ++p) {
        producers.emplace_back([&, p] {
          HhhEngine::Producer& prod = eng->producer(p);
          Xoroshiro128 rng(args.seed * 97 + lo * 31 + p);
          const std::size_t plo = lo + (hi - lo) * p / workers;
          const std::size_t phi = lo + (hi - lo) * (p + 1) / workers;
          for (std::size_t i = plo; i < phi; ++i) {
            if (i >= in.burst_start && rng.bounded(10) < 3) {
              prod.ingest(Key128::from_pair(
                  in.attack_net | rng.bounded(1 << 16), in.victim));
            } else {
              prod.ingest(in.keys[i]);
            }
          }
          prod.flush();
        });
      }
      for (std::thread& t : producers) t.join();
      // Probe right behind the producers: the live window is fullest (and
      // the sealed one oldest) near a boundary -- the best moment for the
      // straddling-onset case. The drift panel below runs probe-free: every
      // probe quiesce parks the workers, so a budget crossing inside its
      // boundary drain charges the snapshot merge to the drift sample and
      // swamps the rotation drift being measured.
      if (probes) probe(hi);
    }
    eng->stop();
    const double dt = now_sec() - t0;
    out.mpps.add(static_cast<double>(in.keys.size()) / dt / 1e6);

    const EngineStats st = eng->stats();
    if (st.budget_rotations > 0) {
      out.drift_ns.add(static_cast<double>(st.rotation_drift_ns_total) /
                       static_cast<double>(st.budget_rotations));
    }
    if (run_detected) {
      ++out.detected_runs;
      out.latency_sum += run_latency;
    }
    out.windows = st.window_epochs;
    out.drops = st.dropped;
  }
  return out;
}

std::string detect_cell_of(const SweepResult& res, int runs) {
  // Mean latency over the runs that detected; a partial hit rate is called
  // out rather than silently reporting one arbitrary run.
  if (res.detected_runs == 0) return "miss";
  std::string cell = fmt(static_cast<double>(res.latency_sum) /
                         static_cast<double>(res.detected_runs) / 1e3);
  if (res.detected_runs < runs) {
    cell += " (" + std::to_string(res.detected_runs) + "/" +
            std::to_string(runs) + ")";
  }
  return cell;
}

/// Trajectory-gated drift cell: leading numeric mean (+- CI), compared by
/// check_trajectory under the header's "ns" lower-better direction.
std::string drift_cell_of(const SweepResult& res) {
  return res.drift_ns.count() > 0 ? ci_cell(res.drift_ns) : "n/a";
}

/// Display-only drift cell: the probe-quiesce-inflated sweep rows are
/// scheduler-noise dominated, so a "~" prefix keeps them out of
/// check_trajectory's numeric diff while staying readable.
std::string drift_cell_untracked(const SweepResult& res) {
  if (res.drift_ns.count() == 0) return "n/a";
  // Append-built: `"~" + fmt(...)` trips GCC 12's -Wrestrict false
  // positive (PR105329) at -O3, same as bench_common's xcell.
  std::string cell("~");
  cell += fmt(res.drift_ns.mean());
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = Args::parse(argc, argv);
  print_figure_header(
      "Window scaling",
      "Windowed engine: throughput + burst detection latency + boundary "
      "drift vs workers vs epoch size, 2D bytes",
      args);

  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  const auto n = static_cast<std::size_t>(4e6 * args.scale);
  const std::vector<Key128>& keys = trace_keys(h, "chicago16", n);
  const std::size_t burst_start = n * 6 / 10;
  const Ipv4 attack_net = ipv4(66, 66, 0, 0);
  const Ipv4 victim = ipv4(203, 0, 113, 9);
  const Prefix attack_bottom{h.bottom(),
                             Key128::from_pair(attack_net | 0x0102u, victim)};
  // A burst whose onset straddles a window boundary leaves part of itself
  // in the sealed window, capping the observable growth ratio near 2x in
  // the worst alignment -- so the alarm uses 2x growth plus an absolute
  // share floor, which together still reject the stable background.
  const double growth = 2.0;
  const SweepInput in{args,       h,      keys,          burst_start,
                      attack_net, victim, attack_bottom, growth};

  print_row({"workers", "epoch/n", "Mpps (95% CI)", "detect kpkt", "windows",
             "drift ns", "drops"});
  for (const std::uint32_t workers : {1u, 2u, 4u}) {
    for (const std::size_t div : {16u, 4u}) {
      const std::size_t epoch = std::max<std::size_t>(n / div, 4);
      const SweepResult res = run_config(in, workers, epoch, /*probes=*/true);
      print_row({std::to_string(workers),
                 xcell(std::string("1/") + std::to_string(div)),
                 ci_cell(res.mpps), detect_cell_of(res, args.runs),
                 std::to_string(res.windows), drift_cell_untracked(res),
                 std::to_string(res.drops)});
    }
  }

  // Drift at a fixed sweep point, probe-free so the sample measures the
  // rotation alone. Small blocking rings keep the pipeline in steady state
  // -- backpressure paces the producers to the workers' consumption rate,
  // so the lag behind a cut stays within a ring's backlog instead of piling
  // into the shutdown sweep on oversubscribed hosts. This is the
  // trajectory-gated drift cell.
  print_row({"rotation", "epoch/n", "drift ns (95% CI)", "windows"});
  const std::size_t drift_epoch = std::max<std::size_t>(n / 16, 4);
  const SweepResult res = run_config(in, /*workers=*/2, drift_epoch,
                                     /*probes=*/false, /*ring=*/1 << 10);
  print_row({"cut", xcell("1/16"), drift_cell_of(res),
             std::to_string(res.windows)});

  std::printf(
      "\n(expected shape: Mpps tracks the non-windowed engine ablation while\n"
      " cores last [this host: %u hardware threads]; fine epochs [1/16 of the\n"
      " stream] flag the planted burst after fewer packets than coarse ones\n"
      " [1/4]; cut drift stays within one ring's backlog)\n",
      std::thread::hardware_concurrency());
  return 0;
}
