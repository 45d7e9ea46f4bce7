// Schedule-stress suite: TSan-targeted interleavings of the engine's
// concurrent machinery. Functionally these tests assert conservation and
// shutdown invariants; their real payload is the schedules they force --
// ring push/pop under contention, rotate-vs-snapshot chaos, archiver
// start/stop/drain cycles, budget cuts racing shutdown, shards rotating at
// cuts while queries and the archiver merge, and the shutdown edges
// (stop() twice, stop() racing an in-flight rotation).
// The `tsan` CI job runs them under ThreadSanitizer (and the `asan` job
// under ASan/UBSan) via the `stress` ctest label, where any data race or
// mis-ordered atomic on these paths fails the build.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/monitor.hpp"
#include "engine/engine.hpp"
#include "net/ipv4.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_ring.hpp"
#include "store/archive.hpp"
#include "util/random.hpp"
#include "util/spsc_ring.hpp"

namespace rhhh {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::path(::testing::TempDir()) /
           ("rhhh_sched_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  [[nodiscard]] std::string str() const { return path.string(); }
};

EngineConfig small_engine(std::uint32_t workers, std::uint32_t producers) {
  EngineConfig cfg;
  cfg.workers = workers;
  cfg.producers = producers;
  cfg.ring_capacity = 256;  // small ring: full/empty transitions are the point
  cfg.batch = 16;
  cfg.monitor.eps = 0.05;
  cfg.monitor.delta = 0.05;
  cfg.monitor.seed = 42;
  return cfg;
}

void ingest_stream(HhhEngine& eng, std::uint32_t producer, std::uint64_t n,
                   std::uint64_t seed) {
  HhhEngine::Producer& prod = eng.producer(producer);
  Xoroshiro128 rng(seed);
  const Key128 hot = Key128::from_pair(ipv4(10, 1, 2, 3), ipv4(99, 5, 6, 7));
  for (std::uint64_t i = 0; i < n; ++i) {
    if (rng.bounded(8) == 0) {
      prod.ingest(hot);
    } else {
      prod.ingest(Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
    }
  }
  prod.flush();
}

// --------------------------------------------------------------- SpscRing --

// One producer thread mixing single and batched pushes against one consumer
// thread mixing single and batched pops, over a deliberately tiny ring so
// both sides keep crossing the full/empty boundaries where the index
// acquire/release pairs do their work; a third thread hammers size_approx()
// (documented safe from any thread). The checksum proves every record
// arrived intact and exactly once.
TEST(SpscScheduleStress, PushPopContentionSingleAndBatch) {
  constexpr std::uint64_t kRecords = 200'000;
  SpscRing<std::uint64_t> ring(64);

  std::atomic<bool> done{false};
  std::uint64_t pushed_sum = 0;
  std::uint64_t popped_sum = 0;
  std::uint64_t popped_cnt = 0;

  std::thread producer([&] {
    Xoroshiro128 rng(7);
    std::uint64_t next = 1;
    std::uint64_t batch[32];
    while (next <= kRecords) {
      if (rng.bounded(2) == 0) {
        if (ring.try_push(next)) {
          pushed_sum += next;
          ++next;
        }
      } else {
        const std::size_t want = std::min<std::uint64_t>(
            1 + rng.bounded(32), kRecords - next + 1);
        for (std::size_t i = 0; i < want; ++i) batch[i] = next + i;
        const std::size_t sent = ring.try_push_n(batch, want);
        for (std::size_t i = 0; i < sent; ++i) pushed_sum += batch[i];
        next += sent;
      }
    }
  });

  std::thread watcher([&] {
    // size_approx() must stay within [0, capacity] no matter the schedule.
    while (!done.load(std::memory_order_acquire)) {
      EXPECT_LE(ring.size_approx(), ring.capacity());
      std::this_thread::yield();
    }
  });

  Xoroshiro128 rng(13);
  std::uint64_t out[32];
  while (popped_cnt < kRecords) {
    if (rng.bounded(2) == 0) {
      std::uint64_t v = 0;
      if (ring.try_pop(v)) {
        popped_sum += v;
        ++popped_cnt;
      }
    } else {
      const std::size_t got = ring.try_pop_n(out, 1 + rng.bounded(32));
      for (std::size_t i = 0; i < got; ++i) popped_sum += out[i];
      popped_cnt += got;
    }
  }
  producer.join();
  done.store(true, std::memory_order_release);
  watcher.join();

  EXPECT_EQ(popped_cnt, kRecords);
  EXPECT_EQ(pushed_sum, kRecords * (kRecords + 1) / 2);
  EXPECT_EQ(popped_sum, pushed_sum);
  EXPECT_EQ(ring.size_approx(), 0u);
}

// ---------------------------------------------------------- engine chaos --

/// Order-insensitive rendering of an HHH answer (prefix, estimate and
/// conditioned count of every candidate).
std::vector<std::string> answer_lines(const Hierarchy& h, const HhhSet& s) {
  std::vector<std::string> out;
  for (const HhhCandidate& c : s) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s|%.17g|%.17g", h.format(c.prefix).c_str(),
                  c.f_est, c.c_hat);
    out.emplace_back(buf);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The merged-window cache's oracle: `merged` (a query's sealed window
/// `age`) must answer exactly like a from-scratch merge of every shard's
/// sealed slot `age` with `drops` folded in. Only the rotating thread may
/// call this -- the sealed slots must not move underneath the check.
void expect_matches_recompute(const HhhEngine& eng, const RhhhSpaceSaving& merged,
                              std::size_t age, std::uint64_t drops) {
  const auto [mode, lp] = lattice_config_of(eng.hierarchy(), eng.config().monitor);
  RhhhSpaceSaving ref(eng.hierarchy(), mode, lp);
  for (std::uint32_t w = 0; w < eng.workers(); ++w) ref.merge(eng.shard_sealed(w, age));
  if (drops != 0) ref.advance_stream(drops);
  EXPECT_EQ(merged.stream_length(), ref.stream_length()) << "age " << age;
  EXPECT_EQ(answer_lines(eng.hierarchy(), merged.output(0.1)),
            answer_lines(eng.hierarchy(), ref.output(0.1)))
      << "age " << age;
}

// Rotations, queries and lock-free stats polls interleaved with live
// producers: snapshot marks racing cuts, and the rotation bookkeeping,
// under maximum contention. Between its rotations the rotator queries (or
// skips, so the next query lags) and checks every cached sealed merge
// against a recompute, while the snapshotter races it for the cache.
TEST(ScheduleStress, RotateVsSnapshotChaos) {
  EngineConfig cfg = small_engine(2, 2);
  cfg.history_depth = 3;
  HhhEngine eng(cfg);
  eng.start();

  constexpr std::uint64_t kPerProducer = 60'000;
  std::vector<std::thread> producers;
  producers.reserve(2);
  for (std::uint32_t p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] { ingest_stream(eng, p, kPerProducer, 100 + p); });
  }
  std::thread rotator([&] {
    Xoroshiro128 rng(0x207A);
    for (int i = 0; i < 25; ++i) {
      eng.rotate_epoch();
      // One rotation in three skips the query: the next one shifts the
      // cache by more than one.
      if (rng.bounded(3) != 2) {
        const TrendSnapshot tr = eng.trend_snapshot();
        EXPECT_NE(tr.sealed_windows(), 0u);
        for (std::size_t age = 0; age < tr.sealed_windows(); ++age) {
          expect_matches_recompute(eng, tr.window_algorithm(age), age,
                                   tr.window_drops(age));
        }
      }
      std::this_thread::yield();
    }
  });
  std::thread snapshotter([&] {
    for (int i = 0; i < 25; ++i) (void)eng.trend_snapshot();
  });
  std::thread poller([&] {
    // The lock-free read side: stats() and the window_epochs() poll that
    // detection loops use, never touching snap_mu_.
    for (int i = 0; i < 400; ++i) {
      const EngineStats s = eng.stats();
      EXPECT_LE(s.consumed + s.dropped, 2 * kPerProducer);
      // Each sealed window is merged for queries at most once.
      EXPECT_LE(s.trend_sealed_merges, s.window_epochs);
      (void)eng.window_epochs();
      (void)eng.epochs();
      std::this_thread::yield();
    }
  });

  for (std::thread& t : producers) t.join();
  rotator.join();
  snapshotter.join();
  poller.join();
  eng.stop();

  const EngineStats s = eng.stats();
  EXPECT_EQ(s.offered, 2 * kPerProducer);
  EXPECT_EQ(s.consumed + s.dropped, s.offered);
  EXPECT_EQ(s.dropped, 0u) << "kBlock must stay lossless";
  EXPECT_GE(s.window_epochs, 25u);
}

// Archiver lifecycle: start / rotate / stop cycles on one store directory.
// Every rotation while running must be disposed of exactly once -- archived,
// dropped on a full queue, or counted as an error -- and a cold reopen must
// see exactly the archived windows across all generations of the archiver
// thread (stop() retires a generation; start() spawns the next).
TEST(ScheduleStress, ArchiverStartStopDrainCycles) {
  TempDir dir("archiver_cycles");
  EngineConfig cfg = small_engine(2, 1);
  cfg.history_depth = 2;
  cfg.archive.dir = dir.str();
  cfg.archive.queue_windows = 4;

  std::uint64_t rotations = 0;
  HhhEngine eng(cfg);
  for (int cycle = 0; cycle < 3; ++cycle) {
    eng.start();
    std::thread producer([&] {
      ingest_stream(eng, 0, 30'000, 7'000 + static_cast<std::uint64_t>(cycle));
    });
    for (int r = 0; r < 4; ++r) {
      eng.rotate_epoch();
      ++rotations;
    }
    producer.join();
    eng.stop();  // retires the archiver generation and drains the queue
  }

  const EngineStats s = eng.stats();
  EXPECT_EQ(s.window_epochs, rotations);
  EXPECT_EQ(s.archived_windows + s.archive_queue_drops + s.archive_errors,
            rotations)
      << "every sealed window disposed of exactly once";
  EXPECT_EQ(s.archive_errors, 0u);

  const store::WindowArchive arch = store::WindowArchive::open_read(dir.str());
  EXPECT_EQ(arch.windows(), s.archived_windows);
  EXPECT_FALSE(arch.truncated_tail()) << "stop() must seal the open segment";
}

// A packet-budget engine stopped while shards may be mid-rotation: stop()
// must join workers that are rotating, or waiting on a shard that is, and
// sweep the rest without deadlocking, and nothing may rotate a stopped
// engine. Several short-lived engines maximize the chance of catching a
// shard inside try_rotate().
TEST(ScheduleStress, CoordinatorStopDuringRotation) {
  for (int round = 0; round < 4; ++round) {
    EngineConfig cfg = small_engine(2, 1);
    cfg.overflow = OverflowPolicy::kDropTail;
    cfg.epoch_packets = 512;  // rotate every few drain passes
    cfg.history_depth = 2;
    HhhEngine eng(cfg);
    eng.start();
    std::atomic<bool> quit{false};
    std::thread producer([&] {
      HhhEngine::Producer& prod = eng.producer(0);
      Xoroshiro128 rng(31 + static_cast<std::uint64_t>(round));
      // order: relaxed -- quit is a plain stop flag with no payload to
      // publish; the join below is the synchronization point.
      while (!quit.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 256; ++i) {
          prod.ingest(Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
        }
        prod.flush();
      }
    });
    // Let rotations start streaming, then stop in the middle of them.
    std::this_thread::sleep_for(std::chrono::milliseconds(5 + 3 * round));
    eng.stop();
    // order: relaxed -- see above; producer exits on next check.
    quit.store(true, std::memory_order_relaxed);
    producer.join();
    // No worker may rotate a stopped engine, though the producer posted
    // cuts until it quit: the count is stable from here on.
    const std::uint64_t epochs_at_stop = eng.window_epochs();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(eng.window_epochs(), epochs_at_stop);
  }
}

// ------------------------------------------------------------ shutdown ----

// stop() is idempotent and safe to race with itself: one caller wins the
// running_ exchange and tears down; the others return without touching the
// joined threads. The destructor then runs stop() a fourth time.
TEST(ShutdownEdges, StopTwiceAndConcurrently) {
  EngineConfig cfg = small_engine(2, 1);
  cfg.epoch_packets = 1'000;
  HhhEngine eng(cfg);
  eng.start();
  std::thread producer([&] { ingest_stream(eng, 0, 20'000, 99); });
  producer.join();

  std::thread s1([&] { eng.stop(); });
  std::thread s2([&] { eng.stop(); });
  s1.join();
  s2.join();
  eng.stop();  // third, sequential stop: still a no-op

  const EngineStats s = eng.stats();
  EXPECT_EQ(s.consumed + s.dropped, s.offered);

  // Restart after the triple stop must come up clean and stop again.
  eng.start();
  std::thread producer2([&] { ingest_stream(eng, 0, 10'000, 100); });
  producer2.join();
  eng.stop();
  const EngineStats s2stats = eng.stats();
  EXPECT_EQ(s2stats.consumed + s2stats.dropped, s2stats.offered);
}

// stop() while producers keep pushing, and keep pushing until it returns:
// every shutdown drain is bounded by the backlog it sees, so stop() returns
// however fast the rings refill. Two flooding producers against one worker
// keep its rings busy; an unbounded "drain until a pass comes back empty"
// spins here for as long as the producers run. The producers quit either
// way once the deadline passes, so a regression fails instead of hanging.
TEST(ShutdownEdges, StopReturnsWhileProducersKeepPushing) {
  for (int round = 0; round < 4; ++round) {
    EngineConfig cfg = small_engine(/*workers=*/1, /*producers=*/2);
    cfg.overflow = OverflowPolicy::kDropTail;
    cfg.epoch_packets = 1'000;
    HhhEngine eng(cfg);
    eng.start();
    std::atomic<bool> quit{false};
    std::vector<std::thread> producers;
    for (std::uint32_t p = 0; p < 2; ++p) {
      producers.emplace_back([&, p] {
        HhhEngine::Producer& prod = eng.producer(p);
        Xoroshiro128 rng(2000 + round * 10 + p);
        // order: acquire -- pairs with the release store below.
        while (!quit.load(std::memory_order_acquire)) {
          for (int i = 0; i < 256; ++i) {
            prod.ingest(
                Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
          }
          prod.flush();
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2 + 2 * round));
    std::atomic<bool> stopped{false};
    std::thread stopper([&] {
      eng.stop();
      // order: release -- pairs with the acquire poll below.
      stopped.store(true, std::memory_order_release);
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    // order: acquire -- see the stopper.
    while (!stopped.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // order: acquire -- see the stopper.
    const bool in_time = stopped.load(std::memory_order_acquire);
    // order: release -- the producers' exit flag.
    quit.store(true, std::memory_order_release);
    for (std::thread& t : producers) t.join();
    stopper.join();
    EXPECT_TRUE(in_time) << "round " << round
                         << ": stop() spun while producers kept pushing";
    const EngineStats s = eng.stats();
    EXPECT_LE(s.consumed + s.dropped, s.offered);
  }
}

// stop() racing manual rotate_epoch() calls: rotations serialized behind
// snap_mu_ either complete before the teardown or run on a stopped engine
// through the no-quiesce path; neither may deadlock or corrupt the window
// accounting.
TEST(ShutdownEdges, StopRacesInFlightRotation) {
  for (int round = 0; round < 3; ++round) {
    EngineConfig cfg = small_engine(2, 1);
    cfg.history_depth = 2;
    HhhEngine eng(cfg);
    eng.start();
    std::thread producer([&] {
      ingest_stream(eng, 0, 40'000, 500 + static_cast<std::uint64_t>(round));
    });
    std::thread rotator([&] {
      for (int i = 0; i < 20; ++i) eng.rotate_epoch();
    });
    // Stop mid-rotation-storm; remaining rotations hit the stopped engine.
    std::this_thread::sleep_for(std::chrono::milliseconds(1 + round));
    eng.stop();
    rotator.join();
    producer.join();
    EXPECT_EQ(eng.window_epochs(), 20u);
    const TrendSnapshot tr = eng.trend_snapshot();
    EXPECT_LE(tr.sealed_windows(), cfg.history_depth);
  }
}

// The archive hand-off across shutdown: a queue bounded well below the
// rotation count forces drops, and the books must still balance -- every
// rotation's sealed window either reached the disk (exactly once) or was
// counted as a drop/error, with the cold store agreeing with the engine's
// own archived_windows.
TEST(ShutdownEdges, ArchiveQueueDrainedExactlyOnce) {
  TempDir dir("drain_once");
  EngineConfig cfg = small_engine(2, 1);
  cfg.archive.dir = dir.str();
  cfg.archive.queue_windows = 2;  // small: rotation bursts overrun it
  cfg.history_depth = 2;

  std::uint64_t rotations = 0;
  {
    HhhEngine eng(cfg);
    eng.start();
    std::thread producer([&] { ingest_stream(eng, 0, 50'000, 1234); });
    for (int r = 0; r < 12; ++r) {
      eng.rotate_epoch();
      ++rotations;
    }
    producer.join();
    eng.stop();

    const EngineStats s = eng.stats();
    EXPECT_EQ(s.window_epochs, rotations);
    EXPECT_EQ(s.archived_windows + s.archive_queue_drops + s.archive_errors,
              rotations);
    EXPECT_EQ(s.archive_errors, 0u);

    const store::WindowArchive arch = store::WindowArchive::open_read(dir.str());
    EXPECT_EQ(arch.windows(), s.archived_windows);

    // stop() again: the queue is already drained; the books must not move.
    eng.stop();
    const EngineStats s2 = eng.stats();
    EXPECT_EQ(s2.archived_windows, s.archived_windows);
    EXPECT_EQ(s2.archive_queue_drops, s.archive_queue_drops);
  }  // destructor: one more stop() on the torn-down engine
}

// stop() racing a restart: one thread stops the engine while another
// start()s it and rotates with archiving on. stop() joins each run's
// archiver before a later start() can open the next segment, so no window
// of one run reaches another run's segment and none is written twice: the
// cold store lists exactly the archived windows, in strictly increasing
// epoch order (window_epochs never resets, so every run's epochs follow
// the last run's).
TEST(ShutdownEdges, StopRacesRestartWithArchiving) {
  TempDir dir("stop_restart");
  EngineConfig cfg = small_engine(2, 1);
  cfg.history_depth = 2;
  cfg.archive.dir = dir.str();
  cfg.archive.queue_windows = 64;
  HhhEngine eng(cfg);
  for (int round = 0; round < 10; ++round) {
    eng.start();
    ingest_stream(eng, 0, 4'000, 800 + static_cast<std::uint64_t>(round));
    // A queue backlog for the stop to find.
    for (int r = 0; r < 8; ++r) eng.rotate_epoch();
    std::thread stopper([&] { eng.stop(); });
    std::thread restarter([&] {
      eng.start();
      for (int r = 0; r < 8; ++r) eng.rotate_epoch();
    });
    stopper.join();
    restarter.join();
  }
  eng.stop();

  const EngineStats s = eng.stats();
  EXPECT_EQ(s.archive_errors, 0u);
  EXPECT_GT(s.archived_windows, 0u);
  const store::WindowArchive arch = store::WindowArchive::open_read(dir.str());
  EXPECT_EQ(arch.windows(), s.archived_windows);
  const std::vector<store::WindowMeta> metas = arch.list();
  for (std::size_t i = 1; i < metas.size(); ++i) {
    EXPECT_GT(metas[i].epoch, metas[i - 1].epoch) << "window " << i;
  }
}

// The archiver behind the history ring: with history_depth = 1 each
// rotation clears the previous window's shard slots, so back-to-back
// rotations overtake an archiver still merging. The rotation that evicts a
// queued window must wait for or run its merge -- never a second one --
// and the persisted bytes must still be what a polled engine serves.
TEST(ScheduleStress, ArchiverBehindHistoryMergesEachWindowOnce) {
  TempDir dir("archiver_behind");
  EngineConfig twin_cfg = small_engine(2, 1);
  twin_cfg.history_depth = 1;
  EngineConfig cfg = twin_cfg;
  cfg.archive.dir = dir.str();
  cfg.archive.queue_windows = 64;
  constexpr std::uint64_t kRotations = 40;
  constexpr std::uint64_t kWindow = 2'000;
  const auto feed = [](HhhEngine& eng, std::uint64_t window) {
    HhhEngine::Producer& prod = eng.producer(0);
    Xoroshiro128 rng(9'000 + window);
    for (std::uint64_t i = 0; i < kWindow; ++i) {
      prod.ingest(Key128::from_pair(static_cast<std::uint32_t>(rng.bounded(64)),
                                    static_cast<std::uint32_t>(rng())));
    }
    prod.flush();
  };

  HhhEngine eng(cfg);
  eng.start();
  for (std::uint64_t r = 0; r < kRotations; ++r) {
    feed(eng, r);
    eng.rotate_epoch();  // no poll: only the archiver and evictions merge
  }
  eng.stop();
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.window_epochs, kRotations);
  EXPECT_EQ(s.archived_windows, s.window_epochs);
  EXPECT_EQ(s.archive_queue_drops, 0u);
  EXPECT_EQ(s.archive_errors, 0u);
  EXPECT_EQ(s.trend_sealed_merges, s.window_epochs)
      << "each sealed window merged exactly once";

  // The same windows on an engine without an archive, polled after every
  // rotation: its window(0) is the query-side merge of each epoch.
  HhhEngine twin(twin_cfg);
  twin.start();
  std::vector<TrendSnapshot> polled;
  polled.reserve(kRotations);
  for (std::uint64_t r = 0; r < kRotations; ++r) {
    feed(twin, r);
    twin.rotate_epoch();
    polled.push_back(twin.trend_snapshot());
  }
  twin.stop();

  const store::WindowArchive arch = store::WindowArchive::open_read(dir.str());
  ASSERT_EQ(arch.windows(), kRotations);
  for (std::size_t i = 0; i < arch.windows(); ++i) {
    const store::ArchivedWindow rec = arch.read(i);
    ASSERT_EQ(rec.meta.epoch, i + 1);
    EXPECT_EQ(store::encode_window(rec.meta, cfg.monitor.hierarchy, *rec.window),
              store::encode_window(rec.meta, cfg.monitor.hierarchy,
                                   polled[i].window_algorithm(0)))
        << "epoch " << rec.meta.epoch;
  }
}

// ------------------------------------------------------------- telemetry --

// Conservation at every scrape: with the engine's gauge_fns sampled in the
// order consumed, dropped, offered, consumed, dropped (each strictly before
// the next), `offered >= consumed + dropped` must hold against the first
// pair -- offered is published before the ring push, consumption counted
// after the pop -- and the slack against the second pair is bounded by
// what can be in flight (per-worker batches mid-push plus ring occupancy).
// Rotations and Prometheus renders run concurrently as chaos; after stop()
// the identity is exact.
TEST(ScheduleStress, MetricsConservationUnderChaos) {
  obs::MetricsRegistry reg;
  EngineConfig cfg = small_engine(2, 2);
  cfg.metrics = &reg;
  HhhEngine eng(cfg);
  eng.start();

  constexpr std::uint64_t kPerProducer = 60'000;
  std::vector<std::thread> producers;
  producers.reserve(2);
  for (std::uint32_t p = 0; p < 2; ++p) {
    producers.emplace_back(
        [&, p] { ingest_stream(eng, p, kPerProducer, 500 + p); });
  }
  std::thread rotator([&] {
    for (int i = 0; i < 15; ++i) {
      eng.rotate_epoch();
      (void)eng.trend_snapshot();  // a poller that queries every window
      std::this_thread::yield();
    }
  });

  // The in-flight bound: every worker ring full plus one mid-push batch per
  // (producer, worker) pair whose offered count is published already.
  const std::uint64_t in_flight_cap =
      static_cast<std::uint64_t>(cfg.producers) * cfg.workers *
      (cfg.ring_capacity + cfg.batch);
  const auto settled = [&] {
    return static_cast<std::uint64_t>(reg.value("rhhh_engine_consumed")) +
           static_cast<std::uint64_t>(reg.value("rhhh_engine_dropped"));
  };
  for (int scrape = 0; scrape < 300; ++scrape) {
    // Offered is bracketed by two consumed + dropped reads: the first pair
    // cannot include a record offered after it, and the second one sees
    // every record the rings and batches no longer hold. Offers that land
    // between the reads loosen neither bound.
    const std::uint64_t settled_before = settled();
    const auto offered =
        static_cast<std::uint64_t>(reg.value("rhhh_engine_offered"));
    const std::uint64_t settled_after = settled();
    ASSERT_GE(offered, settled_before)
        << "conservation violated at scrape " << scrape;
    EXPECT_LE(offered, settled_after + in_flight_cap)
        << "more in flight than the rings and batches can hold";
    const EngineStats st = eng.stats();
    EXPECT_LE(st.trend_sealed_merges, st.window_epochs)
        << "a sealed window merged twice at scrape " << scrape;
    if ((scrape & 31) == 0) {
      const std::string text = reg.render_prometheus();
      EXPECT_NE(text.find("rhhh_engine_offered"), std::string::npos);
    }
    std::this_thread::yield();
  }

  for (std::thread& t : producers) t.join();
  rotator.join();
  eng.stop();

  // Quiesced: the identity is exact and matches the engine's own stats.
  const EngineStats s = eng.stats();
  EXPECT_EQ(static_cast<std::uint64_t>(reg.value("rhhh_engine_offered")),
            2 * kPerProducer);
  EXPECT_EQ(static_cast<std::uint64_t>(reg.value("rhhh_engine_consumed")) +
                static_cast<std::uint64_t>(reg.value("rhhh_engine_dropped")),
            s.offered);
  EXPECT_EQ(static_cast<std::uint64_t>(reg.value("rhhh_engine_epochs")),
            s.epochs);
  // Queried after every rotation: exactly one merge per sealed window.
  EXPECT_EQ(static_cast<std::uint64_t>(
                reg.value("rhhh_engine_trend_sealed_merges")),
            s.trend_sealed_merges);
  EXPECT_EQ(s.trend_sealed_merges, s.window_epochs);
}

// TraceRing under concurrent writers and a dumping reader: every dump must
// be strictly seq-ordered, never exceed capacity, and never contain a torn
// payload (arg1 is derived from arg0, so a slot mixing two generations is
// detectable). Runs under the TSan CI job via the stress label.
TEST(ScheduleStress, TraceRingConcurrentWrapAndDump) {
  obs::TraceRing ring(64);
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20'000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        const std::uint64_t tag = (static_cast<std::uint64_t>(w) << 32) | i;
        ring.record(obs::TraceEvent::kSeal, static_cast<std::int64_t>(i), tag,
                    tag ^ 0xA5A5A5A5ull);
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::vector<obs::TraceRecord> d = ring.dump();
      EXPECT_LE(d.size(), ring.capacity());
      for (std::size_t i = 0; i < d.size(); ++i) {
        if (i > 0) {
          EXPECT_GT(d[i].seq, d[i - 1].seq) << "dump must be seq-ordered";
        }
        EXPECT_EQ(d[i].arg1, d[i].arg0 ^ 0xA5A5A5A5ull)
            << "torn slot survived the ticket validation";
        EXPECT_EQ(d[i].event, obs::TraceEvent::kSeal);
      }
    }
  });

  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(ring.recorded(), kWriters * kPerWriter);
  const std::vector<obs::TraceRecord> final_dump = ring.dump();
  EXPECT_EQ(final_dump.size(), ring.capacity())
      << "a quiesced over-full ring dumps exactly the newest capacity events";
  EXPECT_EQ(final_dump.back().seq, kWriters * kPerWriter - 1);
}

// ------------------------------------------------------------------ cuts --

// One producer, lossless rings: a budget cut sits exactly epoch_packets
// pushed records after the one before it, whatever the workers are doing,
// so every sealed window is exactly epoch_packets long and every cut is a
// budget cut. Two workers rotate on their own cores at their own pace;
// the retained history and the archive-free drift telemetry must agree.
TEST(ScheduleStress, BudgetCutsSealExactWindowsWithOneProducer) {
  constexpr std::uint64_t kEpoch = 20'000;
  constexpr std::uint64_t kRecords = 90'000;

  EngineConfig cfg = small_engine(/*workers=*/2, /*producers=*/1);
  cfg.epoch_packets = kEpoch;
  cfg.history_depth = 8;
  HhhEngine eng(cfg);
  eng.start();
  std::thread p0([&] { ingest_stream(eng, 0, kRecords, 101); });
  p0.join();
  eng.stop();

  const TrendSnapshot trend = eng.trend_snapshot();
  const EngineStats s = trend.stats();
  EXPECT_EQ(s.consumed, kRecords);  // kBlock: lossless
  EXPECT_EQ(s.window_epochs, kRecords / kEpoch);
  ASSERT_EQ(trend.sealed_windows(), kRecords / kEpoch);
  for (std::size_t age = 0; age < trend.sealed_windows(); ++age) {
    EXPECT_EQ(trend.window_length(age), kEpoch) << "age " << age;
  }
  EXPECT_EQ(trend.current_length(), kRecords % kEpoch);
  EXPECT_EQ(s.budget_rotations, s.window_epochs);
  EXPECT_LE(s.late_rotations, s.budget_rotations);
}

// Budget cuts racing engine shutdown: producers keep flooding (kDropTail,
// so they never block on a stopped engine) while stop() lands mid-storm,
// so cuts are posted while workers quit, while stop() sweeps and after it
// returned. Several rounds force different stop points. Invariants: no
// rotation lands after stop() returns (cuts posted later wait for the next
// start()), the books balance, every record is in exactly one window (the
// retained windows' lengths add up to consumed + dropped while the ring
// holds every window of the round), and every window spent a full budget
// of pushed records.
TEST(ScheduleStress, BudgetCutsSurviveEngineStop) {
  constexpr std::uint64_t kEpoch = 500;
  std::uint64_t windows = 0;
  for (int round = 0; round < 4; ++round) {
    EngineConfig cfg = small_engine(/*workers=*/2, /*producers=*/2);
    cfg.overflow = OverflowPolicy::kDropTail;
    cfg.epoch_packets = kEpoch;
    cfg.history_depth = 128;
    HhhEngine eng(cfg);
    eng.start();

    std::atomic<bool> quit{false};
    std::vector<std::thread> producers;
    for (std::uint32_t p = 0; p < 2; ++p) {
      producers.emplace_back([&, p] {
        HhhEngine::Producer& prod = eng.producer(p);
        Xoroshiro128 rng(1000 + round * 10 + p);
        // order: acquire -- pairs with the release store below.
        while (!quit.load(std::memory_order_acquire)) {
          for (int i = 0; i < 256; ++i) {
            prod.ingest(
                Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
          }
          prod.flush();
        }
      });
    }

    // Vary the stop point across rounds: from "barely started" to "several
    // cuts deep".
    std::this_thread::sleep_for(std::chrono::milliseconds(1 + 3 * round));
    eng.stop();
    const std::uint64_t epochs_at_stop = eng.window_epochs();
    const TrendSnapshot tr = eng.trend_snapshot();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    // order: release -- the producers' exit flag.
    quit.store(true, std::memory_order_release);
    for (std::thread& t : producers) t.join();

    EXPECT_EQ(eng.window_epochs(), epochs_at_stop)
        << "no rotation may land after stop() returns";
    ASSERT_EQ(tr.window_epochs(), epochs_at_stop);
    const EngineStats& s = tr.stats();
    EXPECT_LE(s.consumed + s.dropped, s.offered);
    std::uint64_t total = tr.current_length();
    for (std::size_t age = 0; age < tr.sealed_windows(); ++age) {
      EXPECT_GE(tr.window_length(age) - tr.window_drops(age), kEpoch)
          << "a window closed before a full budget of pushed records";
      total += tr.window_length(age);
    }
    if (epochs_at_stop <= cfg.history_depth) {  // every window retained
      EXPECT_EQ(total, s.consumed + s.dropped) << "round " << round;
    }
    windows += epochs_at_stop;
  }
  EXPECT_GT(windows, 0u) << "no round lasted a full budget";
}

// Cut safety with every reader racing the rotating shards: four workers,
// a small epoch, a poller querying back to back and the archiver merging,
// at history depth 1 (each shard reuses the previous window's slot, so it
// must wait for or build that window's merge) and 4, lossless and
// drop-tail. The last round has one producer and an epoch of two batches,
// so a window often holds one batch for each of two shards and a query's
// mark falls between them: the cut posted next then sits exactly at the
// mark on the first shard's lane, and a shard that rotated there before
// copying would drop its live records from the merge. (With an epoch of
// one batch, the shard a cut lands on at the mark holds no live records,
// so that mistake would go unseen.) At every snapshot: the windows so far
// add up to the frozen consumed + dropped (the live merge never mixes two
// windows), and every retained window spent a full budget; after stop(),
// every polled sealed window equals its archived copy byte for byte (no
// shard cleared a slot a merge still read), and the live window holds
// less than one budget (no cut was lost).
TEST(ScheduleStress, CutsNeverMixWindowsNorClearSlotsInUse) {
  struct Round {
    std::size_t depth;
    OverflowPolicy overflow;
    std::uint32_t producers;
    std::uint64_t epoch;
    std::uint64_t records;  ///< per producer; the archive queue holds every window
  };
  for (const Round round : {Round{1, OverflowPolicy::kBlock, 2, 2'000, 30'000},
                            Round{4, OverflowPolicy::kBlock, 2, 2'000, 30'000},
                            Round{1, OverflowPolicy::kDropTail, 2, 2'000, 30'000},
                            Round{1, OverflowPolicy::kBlock, 1, 32, 8'000}}) {
    SCOPED_TRACE(::testing::Message() << "depth " << round.depth << " "
                                      << to_string(round.overflow) << " P="
                                      << round.producers << " epoch " << round.epoch);
    TempDir dir("cuts_" + std::to_string(round.depth) +
                std::string(to_string(round.overflow)) + "_" +
                std::to_string(round.epoch));
    const std::uint64_t kEpoch = round.epoch;
    EngineConfig cfg = small_engine(/*workers=*/4, round.producers);
    cfg.overflow = round.overflow;
    cfg.epoch_packets = kEpoch;
    cfg.history_depth = round.depth;
    cfg.archive.dir = dir.str();
    cfg.archive.queue_windows = 1'024;  // never full: every window archived
    HhhEngine eng(cfg);
    eng.start();

    std::vector<std::thread> producers;
    for (std::uint32_t p = 0; p < round.producers; ++p) {
      producers.emplace_back([&, p] { ingest_stream(eng, p, round.records, 40 + p); });
    }
    std::atomic<bool> done{false};
    std::vector<TrendSnapshot> polled;
    std::thread poller([&] {
      // order: acquire -- pairs with the release store below.
      while (!done.load(std::memory_order_acquire) && polled.size() < 400) {
        TrendSnapshot tr = eng.trend_snapshot();
        for (std::size_t age = 0; age < tr.sealed_windows(); ++age) {
          EXPECT_GE(tr.window_length(age) - tr.window_drops(age), kEpoch);
        }
        polled.push_back(std::move(tr));
      }
    });
    for (std::thread& t : producers) t.join();
    // order: release -- the poller's exit flag.
    done.store(true, std::memory_order_release);
    poller.join();
    eng.stop();

    const EngineStats s = eng.stats();
    ASSERT_EQ(s.archived_windows, s.window_epochs);
    const TrendSnapshot last = eng.trend_snapshot();
    EXPECT_LT(last.current_length() - last.current_drops(), kEpoch)
        << "a spent budget never got its cut";
    const store::WindowArchive arch = store::WindowArchive::open_read(dir.str());
    ASSERT_EQ(arch.windows(), s.window_epochs);
    std::vector<std::uint64_t> before{0};  // [e]: length of windows 1..e
    std::vector<store::ArchivedWindow> archived;
    for (std::size_t i = 0; i < arch.windows(); ++i) {
      archived.push_back(arch.read(i));
      ASSERT_EQ(archived.back().meta.epoch, i + 1);
      before.push_back(before.back() + archived.back().meta.stream_length);
    }
    for (const TrendSnapshot& tr : polled) {
      const std::uint64_t we = tr.window_epochs();
      std::uint64_t total = before[we - tr.sealed_windows()] + tr.current_length();
      for (std::size_t age = 0; age < tr.sealed_windows(); ++age) {
        const store::ArchivedWindow& a = archived[we - age - 1];
        total += tr.window_length(age);
        EXPECT_EQ(store::encode_window(a.meta, cfg.monitor.hierarchy,
                                       tr.window_algorithm(age)),
                  store::encode_window(a.meta, cfg.monitor.hierarchy, *a.window))
            << "epoch " << a.meta.epoch;
      }
      EXPECT_EQ(total, tr.stats().consumed + tr.stats().dropped)
          << "the windows of snapshot " << we << " miss or double-count records";
    }
  }
}

}  // namespace
}  // namespace rhhh
