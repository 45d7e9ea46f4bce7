// Ablation: sharded-engine ingest throughput vs worker count vs V.
//
// W producer threads feed W worker shards (one HhhEngine, key-hash routing,
// lossless blocking overflow) and we time end-to-end ingest -- from the
// first push until every record has been consumed by a shard lattice. V
// sweeps the paper's performance parameter on top: V = H updates on every
// packet, V = 10H touches only ~10% of them, so the per-shard work drops
// and the ring/transport share grows. Drop, backpressure and epoch
// counters from the final snapshot are part of the table (and the --json
// mirror), so multi-core trajectories are tracked in BENCH_*.json.
//
// A second panel reports the ingest pause per window boundary: one
// producer, packet-budget windows, W in {2, 4}. Each worker rotates its own
// shard at a cut while the others keep ingesting, so a boundary pauses
// ingest for the slowest shard's own rotation (rhhh_engine_rotation_ns).
#include <cstdio>
#include <thread>
#include <vector>

#include "common/bench_common.hpp"
#include "engine/engine.hpp"
#include "obs/metrics.hpp"

using namespace rhhh;
using namespace rhhh::bench;

int main(int argc, char** argv) {
  Args args = Args::parse(argc, argv);
  print_figure_header(
      "Engine scaling",
      "Sharded engine aggregate throughput (Mpps) vs workers vs V, 2D bytes",
      args);

  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  const auto n = static_cast<std::size_t>(4e6 * args.scale);
  const std::vector<Key128>& keys = trace_keys(h, "chicago16", n);

  print_row({"workers", "V/H", "Mpps (95% CI)", "drops", "backpressure", "epochs"});
  for (const std::uint32_t workers : {1u, 2u, 4u}) {
    for (const std::uint32_t mult : {1u, 10u}) {
      RunningStats s;
      EngineStats last{};
      for (int r = 0; r < args.runs; ++r) {
        EngineConfig cfg;
        cfg.monitor.hierarchy = HierarchyKind::kIpv4TwoDimBytes;
        cfg.monitor.algorithm =
            mult == 1 ? AlgorithmKind::kRhhh : AlgorithmKind::kTenRhhh;
        cfg.monitor.eps = args.eps;
        cfg.monitor.delta = args.delta;
        cfg.monitor.seed = args.seed + static_cast<std::uint64_t>(r);
        cfg.workers = workers;
        cfg.producers = workers;
        cfg.ring_capacity = 1 << 16;
        cfg.batch = 256;
        cfg.policy = ShardPolicy::kKeyHash;
        cfg.overflow = OverflowPolicy::kBlock;  // lossless: Mpps counts real work
        const std::unique_ptr<HhhEngine> eng = make_engine(cfg);
        eng->start();

        const double t0 = now_sec();
        std::vector<std::thread> producers;
        for (std::uint32_t p = 0; p < workers; ++p) {
          producers.emplace_back([&, p] {
            HhhEngine::Producer& prod = eng->producer(p);
            const std::size_t lo = keys.size() * p / workers;
            const std::size_t hi = keys.size() * (p + 1) / workers;
            for (std::size_t i = lo; i < hi; ++i) prod.ingest(keys[i]);
            prod.flush();
          });
        }
        for (std::thread& t : producers) t.join();
        eng->stop();  // drains every ring: all n records consumed
        const double dt = now_sec() - t0;
        s.add(static_cast<double>(keys.size()) / dt / 1e6);
        last = eng->trend_snapshot().stats();
      }
      print_row({std::to_string(workers), xcell(std::to_string(mult)),
                 ci_cell(s), std::to_string(last.dropped),
                 std::to_string(last.backpressure_waits),
                 std::to_string(last.epochs)});
    }
  }
  std::printf(
      "\n(expected shape: aggregate Mpps grows with workers while cores last\n"
      " [this host: %u hardware threads]; V = 10H shifts work from the shard\n"
      " lattices to the rings, so it scales further before transport binds)\n",
      std::thread::hardware_concurrency());

  print_figure_header(
      "Engine window boundary pause",
      "Ingest pause per window boundary: the slowest shard's own rotation, "
      "RHHH, 2D bytes, one producer, 16 budget windows",
      args);
  print_row({"workers", "pause us (95% CI)", "boundaries"});
  for (const std::uint32_t workers : {2u, 4u}) {
    RunningStats pause_us;
    std::uint64_t boundaries = 0;
    for (int r = 0; r < args.runs; ++r) {
      obs::MetricsRegistry reg;
      EngineConfig cfg;
      cfg.monitor.hierarchy = HierarchyKind::kIpv4TwoDimBytes;
      cfg.monitor.algorithm = AlgorithmKind::kRhhh;
      cfg.monitor.eps = args.eps;
      cfg.monitor.delta = args.delta;
      cfg.monitor.seed = args.seed + static_cast<std::uint64_t>(r);
      cfg.workers = workers;
      cfg.producers = 1;
      cfg.ring_capacity = 1 << 16;
      cfg.batch = 256;
      cfg.epoch_packets = keys.size() / 16;
      cfg.metrics = &reg;
      const std::unique_ptr<HhhEngine> eng = make_engine(cfg);
      eng->start();
      HhhEngine::Producer& prod = eng->producer(0);
      for (const Key128& k : keys) prod.ingest(k);
      prod.flush();
      eng->stop();
      const LogHistogram pause = reg.histogram("rhhh_engine_rotation_ns").snapshot();
      pause_us.add(pause.mean() / 1e3);
      boundaries = pause.count();
    }
    print_row({std::to_string(workers), ci_cell(pause_us), std::to_string(boundaries)});
  }
  std::printf(
      "\n(each worker clears its own shard's oldest ring slot at a cut while\n"
      " the others keep ingesting; the pause tracks one shard's counters,\n"
      " not W of them)\n");
  return 0;
}
