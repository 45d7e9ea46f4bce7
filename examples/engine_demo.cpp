// Sharded multi-core ingest with HhhEngine: two producer threads fan a
// planted-attack trace across four worker shards; an epoch snapshot merges
// the per-shard RHHH lattices into one network-wide view mid-stream and
// again at the end -- the live-query pattern a collector daemon would run.
//
// With --archive DIR the engine additionally rotates window epochs and its
// background archiver persists every sealed window to the durable store at
// DIR; after shutdown the demo reopens the store cold and answers the same
// last-K query from disk (inspect it further with store_tool).
//
// With --metrics PORT (0 = kernel-assigned) the telemetry exporter serves
// GET /metrics, /metrics.json, /trace, /health and /healthz on 127.0.0.1
// for the whole run -- `curl 127.0.0.1:PORT/metrics` while the demo
// ingests. --serve-ms MS keeps serving that long after the run finishes
// (for external scrapers); the demo always self-scrapes once at the end
// and fails if the engine's own families are missing from the exposition
// or /health serves no certificate ledger.
//
// --watchdog-ms MS arms the engine's stall watchdog at that period;
// --watchdog-dump PATH points its flight recorder at a file.
//
// Run:  ./engine_demo [packets] [--archive DIR] [--metrics PORT
//                     [--serve-ms MS]] [--watchdog-ms MS]
//                     [--watchdog-dump PATH]
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "core/monitor.hpp"
#include "engine/engine.hpp"
#include "net/ipv4.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_ring.hpp"
#include "store/archive.hpp"
#include "trace/trace_gen.hpp"
#include "util/random.hpp"

namespace {

void print_view(const rhhh::HhhEngine& eng, const rhhh::TrendSnapshot& snap,
                double theta) {
  const auto n = static_cast<double>(snap.current_length());
  const rhhh::EngineStats& s = snap.stats();
  std::printf("epoch %llu: N=%.0f offered=%llu consumed=%llu dropped=%llu\n",
              static_cast<unsigned long long>(s.epochs), n,
              static_cast<unsigned long long>(s.offered),
              static_cast<unsigned long long>(s.consumed),
              static_cast<unsigned long long>(s.dropped));
  for (const rhhh::HhhCandidate& c : snap.current(theta)) {
    std::printf("  %-36s ~%5.2f%%\n", eng.hierarchy().format(c.prefix).c_str(),
                100.0 * c.f_est / n);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t packets = 2'000'000;
  std::string archive_dir;
  bool serve_metrics = false;
  std::uint16_t metrics_port = 0;
  std::uint64_t serve_ms = 0;
  std::uint32_t watchdog_ms = 0;
  std::string watchdog_dump;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--archive") == 0 && i + 1 < argc) {
      archive_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      serve_metrics = true;
      metrics_port =
          static_cast<std::uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--serve-ms") == 0 && i + 1 < argc) {
      serve_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--watchdog-ms") == 0 && i + 1 < argc) {
      watchdog_ms =
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--watchdog-dump") == 0 && i + 1 < argc) {
      watchdog_dump = argv[++i];
    } else {
      packets = std::strtoull(argv[i], nullptr, 10);
    }
  }
  const double theta = 0.1;

  // The exporter serves the global registry -- the same one the engine
  // binds its instruments to below (EngineConfig::metrics defaults to it).
  rhhh::obs::MetricsExporter exporter(rhhh::obs::MetricsRegistry::global(),
                                      &rhhh::obs::TraceRing::global());
  if (serve_metrics) {
    exporter.start(metrics_port);
    std::printf("metrics: serving http://127.0.0.1:%u/metrics\n",
                exporter.port());
  }

  rhhh::EngineConfig cfg;
  cfg.monitor.hierarchy = rhhh::HierarchyKind::kIpv4TwoDimBytes;
  cfg.monitor.algorithm = rhhh::AlgorithmKind::kRhhh;
  cfg.monitor.eps = 0.01;
  cfg.monitor.delta = 0.01;
  cfg.workers = 4;
  cfg.producers = 2;
  std::size_t store_baseline = 0;
  if (!archive_dir.empty()) {
    // Durable archiving: rotate ~8 windows over the stream and persist
    // each sealed window; small segments exercise the roll path.
    cfg.epoch_packets = std::max<std::uint64_t>(packets / 8, 1);
    cfg.history_depth = 4;
    cfg.archive.dir = archive_dir;
    cfg.archive.segment_bytes = 1u << 20;
    // Re-running against an existing store appends to it: remember how
    // many windows it already held so the end-of-run check counts only
    // this run's contribution.
    try {
      store_baseline = rhhh::store::WindowArchive::open_read(archive_dir).windows();
    } catch (const std::exception&) {
      store_baseline = 0;  // fresh directory
    }
  }
  cfg.health.watchdog_millis = watchdog_ms;
  cfg.health.dump_path = watchdog_dump;
  const std::unique_ptr<rhhh::HhhEngine> eng = rhhh::make_engine(cfg);
  // The engine outlives every exporter request (the exporter is stopped, or
  // was never started, before eng dies at end of main), so handing its
  // ledger to the /health route is safe.
  exporter.set_health_source(eng->health());
  eng->start();
  std::printf("engine: %u producers -> %u shards, %s routing, %s overflow\n\n",
              eng->producers(), eng->workers(), to_string(cfg.policy).data(),
              to_string(cfg.overflow).data());

  // Two ingest threads: mixed background traffic with a 20% flood toward
  // one /24 (scattered sources -- only the destination aggregate is heavy).
  const rhhh::Ipv4 victim = rhhh::ipv4(203, 0, 113, 0);
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      rhhh::HhhEngine::Producer& prod = eng->producer(p);
      rhhh::TraceGenerator gen(
          rhhh::trace_preset(p == 0 ? "chicago16" : "sanjose14"));
      rhhh::Xoroshiro128 rng(1234 + p);
      for (std::size_t i = 0; i < packets / 2; ++i) {
        if (rng.bounded(10) < 2) {
          prod.ingest(rhhh::Key128::from_pair(static_cast<rhhh::Ipv4>(rng()),
                                              victim | rng.bounded(256)));
        } else {
          prod.ingest(eng->hierarchy().key_of(gen.next()));
        }
      }
      prod.flush();
    });
  }

  // A mid-stream query: each worker copies its shard at the query's mark
  // and keeps ingesting, and this thread merges the four copies -- the
  // producers keep running across the query.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  print_view(*eng, eng->trend_snapshot(), theta);

  for (std::thread& t : producers) t.join();
  eng->stop();

  std::printf("\n");
  const rhhh::TrendSnapshot final_snap = eng->trend_snapshot();
  print_view(*eng, final_snap, theta);

  const rhhh::EngineStats& s = final_snap.stats();
  std::printf("\nper-shard consumed:");
  for (std::uint32_t w = 0; w < eng->workers(); ++w) {
    std::printf(" [%u]=%llu", w,
                static_cast<unsigned long long>(s.per_worker_consumed[w]));
  }
  std::printf("\nbackpressure waits: %llu\n",
              static_cast<unsigned long long>(s.backpressure_waits));
  std::printf(
      "\nThe victim /24's flood is assembled across both producers and all\n"
      "four shards; no single shard needs to see the whole stream, and the\n"
      "epoch merge corrects every estimate for the network-wide N.\n");

  if (!archive_dir.empty()) {
    // Cold read-back: reopen the store a collector restart would see and
    // answer the last-4-windows query straight from disk.
    std::printf("\narchived windows: %" PRIu64 " (queue drops %" PRIu64
                ", errors %" PRIu64 ")\n",
                s.archived_windows, s.archive_queue_drops, s.archive_errors);
    const rhhh::store::WindowArchive ar =
        rhhh::store::WindowArchive::open_read(archive_dir);
    std::printf("store %s: %zu segment(s), %zu window(s), %" PRIu64 " bytes\n",
                ar.dir().c_str(), ar.segments(), ar.windows(), ar.total_bytes());
    if (store_baseline + s.archived_windows != ar.windows()) {
      std::printf("ERROR: store window count does not match the archiver's\n");
      return 1;
    }
    std::uint64_t drops = 0;
    const auto merged = ar.merged_last(4, &drops);
    if (merged != nullptr) {
      const auto n = static_cast<double>(merged->stream_length());
      std::printf("last-4-windows HHH set from disk (N=%.0f, drops %" PRIu64
                  "):\n",
                  n, drops);
      for (const rhhh::HhhCandidate& c : merged->output(theta)) {
        std::printf("  %-36s ~%5.2f%%\n",
                    merged->hierarchy().format(c.prefix).c_str(),
                    100.0 * c.f_est / n);
      }
    }
  }

  if (serve_metrics) {
    // Self-scrape: the demo doubles as the exporter smoke test.
    const std::string body =
        rhhh::obs::http_get_local(exporter.port(), "/metrics");
    if (body.find("rhhh_engine_push_batch_ns") == std::string::npos) {
      std::printf("ERROR: /metrics is missing the engine families\n");
      return 1;
    }
    const std::string health =
        rhhh::obs::http_get_local(exporter.port(), "/health");
    if (health.find("\"certificates\"") == std::string::npos) {
      std::printf("ERROR: /health is missing the certificate ledger\n");
      return 1;
    }
    std::printf("\nself-scrape ok: %zu bytes of exposition, %" PRIu64
                " request(s) served\n",
                body.size(), exporter.scrapes());
    if (serve_ms > 0) {
      std::printf("serving /metrics for another %" PRIu64 " ms...\n", serve_ms);
      std::this_thread::sleep_for(std::chrono::milliseconds(serve_ms));
    }
    exporter.stop();
  }
  return 0;
}
