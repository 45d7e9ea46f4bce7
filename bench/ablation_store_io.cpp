// Ablation: durable window store I/O -- what archiving costs and what
// segment sizing buys.
//
// Three panels over a planted-trace stream (2D bytes hierarchy):
//   * archive write path vs segment size: serialize + append E merged
//     windows through WindowArchive (the archiver thread's exact work) --
//     windows/s, MB/s, resulting segments/bytes.
//   * cold query path vs segment size: reopen the store and answer a
//     merged last-8 query, the same 8 windows as a range() merged by hand
//     (LatticeHhh::merge, the engine's pairwise path) and a full replay --
//     the collector-restart and offline-reprocessing costs.
//   * engine rotation overhead: the same windowed engine run with
//     archiving off vs on (ingest Mpps side by side). The archiver merges
//     off the packet path and does I/O on its own thread, so the two
//     columns should match within noise -- this is the "strictly off the
//     hot path" acceptance check, measured.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "common/bench_common.hpp"
#include "engine/engine.hpp"
#include "store/archive.hpp"

using namespace rhhh;
using namespace rhhh::bench;

namespace {

/// Builds E per-epoch merged windows from the key stream (one lattice per
/// epoch slice), the same objects a rotation hands the archiver.
std::vector<store::ArchivedWindow> make_windows(const Hierarchy& h,
                                                const std::vector<Key128>& keys,
                                                std::size_t epochs,
                                                const Args& args, int run) {
  std::vector<store::ArchivedWindow> out;
  out.reserve(epochs);
  const std::size_t epoch = keys.size() / epochs;
  for (std::size_t e = 0; e < epochs; ++e) {
    LatticeParams lp;
    lp.eps = args.eps;
    lp.delta = args.delta;
    lp.seed = args.seed + 1000 * static_cast<std::uint64_t>(run) + e;
    auto lat = std::make_unique<RhhhSpaceSaving>(h, LatticeMode::kRhhh, lp);
    for (std::size_t i = e * epoch; i < (e + 1) * epoch; ++i) {
      lat->update(keys[i]);
    }
    store::ArchivedWindow w;
    w.meta.epoch = e + 1;
    w.meta.wall_start_ns = static_cast<std::int64_t>(e) * 1'000'000'000;
    w.meta.wall_end_ns = static_cast<std::int64_t>(e + 1) * 1'000'000'000;
    w.meta.duration_ns = 1'000'000'000;
    w.meta.stream_length = lat->stream_length();
    w.meta.updates = lat->updates_performed();
    w.window = std::move(lat);
    out.push_back(std::move(w));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = Args::parse(argc, argv);
  print_figure_header(
      "Store I/O",
      "Durable window store: archive throughput, cold-query latency, rotation overhead",
      args);

  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  const auto n = static_cast<std::size_t>(4e6 * args.scale);
  const std::vector<Key128>& keys = trace_keys(h, "chicago16", n);
  constexpr std::size_t kEpochs = 24;
  const std::filesystem::path dir =
      std::filesystem::current_path() / "ablation_store_io.tmp";

  std::printf("\n-- archive write + cold query vs segment size, %zu windows --\n",
              kEpochs);
  print_row({"segment KiB", "write win/s", "write MB/s", "segments",
             "last-8 query ms", "range-8 + merge ms", "replay ms"});
  // Window e spans [e, e+1] seconds: this range selects the last 8.
  const std::int64_t last8_from = static_cast<std::int64_t>(kEpochs - 8) * 1'000'000'000 + 1;
  const std::int64_t last8_to = static_cast<std::int64_t>(kEpochs) * 1'000'000'000;
  for (const std::uint64_t seg_kib : {256u, 1024u, 4096u}) {
    RunningStats win_per_s;
    RunningStats write_mbs;
    RunningStats query_ms;
    RunningStats range_ms;
    RunningStats replay_ms;
    std::size_t segments = 0;
    for (int r = 0; r < args.runs; ++r) {
      std::filesystem::remove_all(dir);
      const std::vector<store::ArchivedWindow> windows =
          make_windows(h, keys, kEpochs, args, r);

      ArchiveConfig cfg;
      cfg.dir = dir.string();
      cfg.segment_bytes = seg_kib << 10;
      std::uint64_t bytes = 0;
      const double w0 = now_sec();
      {
        store::WindowArchive ar = store::WindowArchive::open_write(cfg);
        for (const store::ArchivedWindow& w : windows) {
          ar.append(w.meta, HierarchyKind::kIpv4TwoDimBytes, *w.window);
        }
        ar.close();
        bytes = ar.total_bytes();
        segments = ar.segments();
      }
      const double wdt = now_sec() - w0;
      win_per_s.add(static_cast<double>(kEpochs) / wdt);
      write_mbs.add(static_cast<double>(bytes) / wdt / 1e6);

      const store::WindowArchive cold = store::WindowArchive::open_read(dir.string());
      const double q0 = now_sec();
      const auto merged = cold.merged_last(8);
      query_ms.add((now_sec() - q0) * 1e3);
      if (merged == nullptr || merged->stream_length() == 0) std::printf("?");

      const double r0 = now_sec();
      std::vector<store::ArchivedWindow> picked = cold.range(last8_from, last8_to);
      for (std::size_t i = 1; i < picked.size(); ++i) {
        picked.front().window->merge(*picked[i].window);
      }
      range_ms.add((now_sec() - r0) * 1e3);
      if (picked.size() != 8 ||
          picked.front().window->stream_length() != merged->stream_length()) {
        std::printf("?");
      }

      const double p0 = now_sec();
      store::WindowArchive::Replay it = cold.replay();
      store::ArchivedWindow w;
      std::uint64_t total = 0;
      while (it.next(w)) total += w.meta.stream_length;
      replay_ms.add((now_sec() - p0) * 1e3);
      if (total == 0) std::printf("?");
    }
    print_row({std::to_string(seg_kib), ci_cell(win_per_s), ci_cell(write_mbs),
               std::to_string(segments), ci_cell(query_ms), ci_cell(range_ms),
               ci_cell(replay_ms)});
    std::filesystem::remove_all(dir);
  }

  std::printf("\n-- windowed engine (2 producers -> 2 workers), rotations = 16 --\n");
  print_row({"archiver", "Mpps (95% CI)", "stop drain ms", "archived",
             "queue drops"});
  for (const bool archived : {false, true}) {
    RunningStats mpps;
    RunningStats drain_ms;
    std::uint64_t archived_windows = 0;
    std::uint64_t queue_drops = 0;
    for (int r = 0; r < args.runs; ++r) {
      std::filesystem::remove_all(dir);
      EngineConfig cfg;
      cfg.monitor.hierarchy = HierarchyKind::kIpv4TwoDimBytes;
      cfg.monitor.algorithm = AlgorithmKind::kRhhh;
      cfg.monitor.eps = args.eps;
      cfg.monitor.delta = args.delta;
      cfg.monitor.seed = args.seed + static_cast<std::uint64_t>(r);
      cfg.workers = 2;
      cfg.producers = 2;
      cfg.overflow = OverflowPolicy::kBlock;
      cfg.history_depth = 4;
      if (archived) cfg.archive.dir = dir.string();
      const std::unique_ptr<HhhEngine> eng = make_engine(cfg);
      eng->start();
      const std::size_t epoch = std::max<std::size_t>(keys.size() / 16, 4);
      const double t0 = now_sec();
      for (std::size_t lo = 0; lo < keys.size(); lo += epoch) {
        const std::size_t hi = std::min(lo + epoch, keys.size());
        std::vector<std::thread> producers;
        for (std::uint32_t p = 0; p < 2; ++p) {
          producers.emplace_back([&, p] {
            HhhEngine::Producer& prod = eng->producer(p);
            const std::size_t plo = lo + (hi - lo) * p / 2;
            const std::size_t phi = lo + (hi - lo) * (p + 1) / 2;
            for (std::size_t i = plo; i < phi; ++i) prod.ingest(keys[i]);
            prod.flush();
          });
        }
        for (std::thread& t : producers) t.join();
        eng->rotate_epoch();
      }
      // Ingest + every synchronous rotation (the rotation-path check);
      // stop() additionally waits for the archiver to drain its queue and
      // seal the segment -- that shutdown cost is reported separately.
      const double t1 = now_sec();
      eng->stop();
      drain_ms.add((now_sec() - t1) * 1e3);
      mpps.add(static_cast<double>(keys.size()) / (t1 - t0) / 1e6);
      const EngineStats s = eng->stats();
      archived_windows = s.archived_windows;
      queue_drops = s.archive_queue_drops;
    }
    print_row({archived ? "on" : "off", ci_cell(mpps), ci_cell(drain_ms),
               std::to_string(archived_windows), std::to_string(queue_drops)});
    std::filesystem::remove_all(dir);
  }

  std::printf(
      "\n(expected shape: write throughput flat-ish in segment size -- the\n"
      " payload dominates the frame overhead -- with segment count inverse\n"
      " to size; query/replay pay one decode per selected window; the\n"
      " engine's Mpps columns should agree within CI on multi-core hosts --\n"
      " a rotation only queues the sealed window's record, while the\n"
      " merge + I/O run on the archiver thread, whose backlog surfaces as\n"
      " stop-drain time at these tiny epochs; a single-core host has no\n"
      " spare core, so the archiver's CPU time serializes with ingest --\n"
      " the same caveat as ablation_window_scaling's pacing note)\n");
  return 0;
}
