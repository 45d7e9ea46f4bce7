// Telemetry layer tests (src/obs/): instrument semantics (sharded counters,
// gauges, log-bucketed histograms), registry behavior (idempotent
// registration, kind/name validation, both expositions), the TraceRing's
// wrap-around/ordering contract, and the exporter acceptance criterion --
// `GET /metrics` against a live engine returns Prometheus text while
// ingestion keeps running at full rate (no quiesce).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fstream>
#include <sstream>

#include "engine/engine.hpp"
#include "obs/exporter.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_ring.hpp"
#include "util/random.hpp"

namespace rhhh {
namespace {

using obs::AccuracyCertificate;
using obs::HealthLedger;
using obs::MetricsExporter;
using obs::MetricsRegistry;
using obs::StallWatchdog;
using obs::TraceEvent;
using obs::TraceRing;

// --------------------------------------------------------- instruments ----

TEST(ObsCounter, AddsFromManyThreadsSumExactly) {
  MetricsRegistry reg;
  obs::Counter& c = reg.counter("obs_test_adds_total");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPer = 50000;
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPer; ++i) c.inc();
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), kThreads * kPer);
}

TEST(ObsGauge, SetAddValue) {
  MetricsRegistry reg;
  obs::Gauge& g = reg.gauge("obs_test_depth");
  EXPECT_EQ(g.value(), 0);
  g.set(42);
  EXPECT_EQ(g.value(), 42);
  g.add(-50);
  EXPECT_EQ(g.value(), -8);
}

TEST(ObsHistogram, SnapshotFoldsAllShards) {
  MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("obs_test_latency_ns");
  // Record from several threads so multiple shard slots are exercised.
  constexpr int kThreads = 4;
  constexpr int kPer = 10000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&h, t] {
      for (int i = 0; i < kPer; ++i) {
        h.record(static_cast<std::uint64_t>(t) * 1000 + 100);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPer);
  const LogHistogram snap = h.snapshot();
  EXPECT_EQ(snap.count(), h.count());
  EXPECT_GE(snap.max(), 3000u);  // bucket-edge resolution, >= largest sample
  EXPECT_GT(snap.quantile(0.5), 0.0);
  // sum folds exactly (relaxed adds, but all joined before the snapshot).
  EXPECT_DOUBLE_EQ(snap.mean() * static_cast<double>(snap.count()),
                   10000.0 * (100 + 1100 + 2100 + 3100));
}

TEST(ObsHistogram, RecordSinceAndScopedTimer) {
  MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("obs_test_scoped_ns");
  { const obs::ScopedTimer t(&h); }
  { const obs::ScopedTimer t(nullptr); }  // telemetry off: must be a no-op
  h.record_since(obs::now_ns());          // ~0 elapsed, still one sample
  EXPECT_EQ(h.count(), 2u);
}

// ------------------------------------------------------------ registry ----

TEST(ObsRegistry, RegistrationIsIdempotent) {
  MetricsRegistry reg;
  obs::Counter& a = reg.counter("obs_test_idem_total", "help text");
  obs::Counter& b = reg.counter("obs_test_idem_total");
  EXPECT_EQ(&a, &b) << "same name must return the same instrument";
  EXPECT_EQ(reg.size(), 1u);
  a.add(3);
  EXPECT_EQ(reg.value("obs_test_idem_total"), 3.0);
}

TEST(ObsRegistry, KindMismatchAndBadNamesThrow) {
  MetricsRegistry reg;
  reg.counter("obs_test_kind_total");
  EXPECT_THROW(reg.gauge("obs_test_kind_total"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("obs_test_kind_total"), std::invalid_argument);
  // Built via std::string so the lint's literal `counter("")` rule (which
  // this throw is the runtime backstop for) doesn't flag its own test.
  EXPECT_THROW(reg.counter(std::string()), std::invalid_argument);
  EXPECT_THROW(reg.counter("1starts_with_digit"), std::invalid_argument);
  EXPECT_THROW(reg.counter("has space"), std::invalid_argument);
  EXPECT_THROW(reg.counter("unclosed{label=\"v\""), std::invalid_argument);
  // Labeled series names are valid.
  EXPECT_NO_THROW(reg.counter("obs_test_ring{ring=\"p0w1\"}"));
}

TEST(ObsRegistry, UnregisterRemovesAndGaugeFnLastWriterWins) {
  MetricsRegistry reg;
  reg.gauge_fn("obs_test_fn", [] { return 1.0; });
  reg.gauge_fn("obs_test_fn", [] { return 7.0; });
  EXPECT_EQ(reg.value("obs_test_fn"), 7.0);
  EXPECT_TRUE(reg.unregister("obs_test_fn"));
  EXPECT_FALSE(reg.unregister("obs_test_fn"));
  EXPECT_FALSE(reg.has("obs_test_fn"));
  EXPECT_EQ(reg.value("obs_test_fn"), 0.0);
}

TEST(ObsRegistry, PrometheusRendering) {
  MetricsRegistry reg;
  reg.counter("obs_req_total", "requests").add(5);
  reg.gauge("obs_depth", "queue depth").set(-3);
  reg.counter("obs_hits{path=\"a\"}", "hits by path").add(1);
  reg.counter("obs_hits{path=\"b\"}").add(2);
  obs::Histogram& h = reg.histogram("obs_lat_ns", "latency");
  h.record(100);
  h.record(200);
  const std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("# TYPE obs_req_total counter"), std::string::npos);
  EXPECT_NE(text.find("# HELP obs_req_total requests"), std::string::npos);
  EXPECT_NE(text.find("obs_req_total 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("obs_depth -3"), std::string::npos);
  EXPECT_NE(text.find("obs_hits{path=\"a\"} 1"), std::string::npos);
  EXPECT_NE(text.find("obs_hits{path=\"b\"} 2"), std::string::npos);
  // TYPE emitted once per family even with two labeled series.
  std::size_t n = 0;
  for (std::size_t p = text.find("# TYPE obs_hits"); p != std::string::npos;
       p = text.find("# TYPE obs_hits", p + 1)) {
    ++n;
  }
  EXPECT_EQ(n, 1u);
  // Histograms render as summaries: quantiles plus _sum/_count.
  EXPECT_NE(text.find("# TYPE obs_lat_ns summary"), std::string::npos);
  EXPECT_NE(text.find("obs_lat_ns{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("obs_lat_ns{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(text.find("obs_lat_ns_count 2"), std::string::npos);
  EXPECT_NE(text.find("obs_lat_ns_sum 300"), std::string::npos);
}

TEST(ObsRegistry, JsonRendering) {
  MetricsRegistry reg;
  reg.counter("obs_j_total", "with \"quotes\"").add(9);
  reg.histogram("obs_j_ns").record(50);
  const std::string j = reg.render_json();
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
  EXPECT_NE(j.find("\"name\":\"obs_j_total\""), std::string::npos);
  EXPECT_NE(j.find("\"kind\":\"counter\""), std::string::npos);
  EXPECT_NE(j.find("\"value\":9"), std::string::npos);
  EXPECT_NE(j.find("\\\"quotes\\\""), std::string::npos) << "help is escaped";
  EXPECT_NE(j.find("\"kind\":\"histogram\""), std::string::npos);
  EXPECT_NE(j.find("\"count\":1"), std::string::npos);
}

// ----------------------------------------------------------- TraceRing ----

TEST(ObsTraceRing, DumpIsSeqOrderedAndWrapKeepsNewest) {
  TraceRing ring(16);  // rounded to 16
  EXPECT_EQ(ring.capacity(), 16u);
  for (std::uint64_t i = 0; i < 40; ++i) {
    ring.record(TraceEvent::kRotate, static_cast<std::int64_t>(i), i, i * 2);
  }
  EXPECT_EQ(ring.recorded(), 40u);
  const std::vector<obs::TraceRecord> d = ring.dump();
  ASSERT_EQ(d.size(), 16u) << "wrap keeps exactly the newest capacity events";
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(d[i].seq, 24 + i);  // 40 - 16 .. 39, oldest first
    EXPECT_EQ(d[i].arg0, d[i].seq);
    EXPECT_EQ(d[i].arg1, d[i].seq * 2);
    EXPECT_EQ(d[i].event, TraceEvent::kRotate);
  }
}

TEST(ObsTraceRing, ToStringCoversEveryEvent) {
  EXPECT_STREQ(to_string(TraceEvent::kRotate), "rotate");
  EXPECT_STREQ(to_string(TraceEvent::kCopy), "copy");
  EXPECT_STREQ(to_string(TraceEvent::kSeal), "seal");
  EXPECT_STREQ(to_string(TraceEvent::kArchive), "archive");
  EXPECT_STREQ(to_string(TraceEvent::kArchiveDrop), "archive_drop");
  EXPECT_STREQ(to_string(TraceEvent::kArchiveError), "archive_error");
  EXPECT_STREQ(to_string(TraceEvent::kSegmentRoll), "segment_roll");
  EXPECT_STREQ(to_string(TraceEvent::kCompaction), "compaction");
  EXPECT_STREQ(to_string(TraceEvent::kSnapshot), "snapshot");
  EXPECT_STREQ(to_string(TraceEvent::kScrape), "scrape");
  EXPECT_STREQ(to_string(TraceEvent::kStall), "stall");
}

// -------------------------------------------------------- health ledger ----

TEST(ObsHealthLedger, RegistersGaugesMirrorsNewestAndUnregisters) {
  MetricsRegistry reg;
  {
    HealthLedger led(&reg, 2);
    EXPECT_TRUE(reg.has("rhhh_health_certificates_total"));
    EXPECT_TRUE(reg.has("rhhh_health_eps_empirical"));
    EXPECT_TRUE(reg.has("rhhh_health_converged"));
    AccuracyCertificate c;
    c.epoch = 3;
    c.stream_length = 1000;
    c.drops = 10;
    c.eps_configured = 0.1;
    c.eps_empirical = 0.25;
    c.sampling_slack = 0.05;
    c.occupancy = 0.5;
    c.max_saturation = 1.0;
    c.converged = true;
    led.stamp(c);
    EXPECT_EQ(reg.value("rhhh_health_certificates_total"), 1.0);
    EXPECT_EQ(reg.value("rhhh_health_window_epoch"), 3.0);
    EXPECT_EQ(reg.value("rhhh_health_window_stream_length"), 1000.0);
    EXPECT_EQ(reg.value("rhhh_health_window_drops"), 10.0);
    EXPECT_DOUBLE_EQ(reg.value("rhhh_health_eps_empirical"), 0.25);
    EXPECT_DOUBLE_EQ(reg.value("rhhh_health_eps_configured"), 0.1);
    EXPECT_DOUBLE_EQ(reg.value("rhhh_health_sampling_slack"), 0.05);
    EXPECT_EQ(reg.value("rhhh_health_converged"), 1.0);
    // keep=2: stamping two more ages epoch 3 out; newest stays in front.
    c.epoch = 4;
    led.stamp(c);
    c.epoch = 5;
    c.converged = false;
    led.stamp(c);
    const std::vector<AccuracyCertificate> recent = led.recent();
    ASSERT_EQ(recent.size(), 2u);
    EXPECT_EQ(recent[0].epoch, 5u);
    EXPECT_EQ(recent[1].epoch, 4u);
    EXPECT_EQ(led.stamped(), 3u);
    EXPECT_EQ(reg.value("rhhh_health_converged"), 0.0);
    const std::string j = led.render_json();
    EXPECT_NE(j.find("\"stamped\":3"), std::string::npos);
    EXPECT_NE(j.find("\"certificates\":["), std::string::npos);
    EXPECT_NE(j.find("\"epoch\":5"), std::string::npos);
    EXPECT_EQ(j.find("\"epoch\":3"), std::string::npos) << "aged out of keep=2";
  }
  EXPECT_FALSE(reg.has("rhhh_health_eps_empirical"))
      << "the ledger must unregister its gauge_fns on destruction";
  EXPECT_EQ(reg.size(), 0u);
}

// ------------------------------------------------------- stall watchdog ----

/// Detection policy against a synthetic sampler: frozen consumed counters
/// with backlog in the rings trips a stall within two periods, the first
/// stalled period of the episode writes the flight recorder (trace +
/// certificates + stats sections), and resumed progress re-arms it.
TEST(ObsHealthWatchdog, DetectsFrozenProgressAndWritesFlightRecorder) {
  MetricsRegistry reg;
  HealthLedger ledger(&reg, 4);
  AccuracyCertificate cert;
  cert.epoch = 7;
  cert.stream_length = 123;
  ledger.stamp(cert);
  TraceRing ring(64);
  const std::string dump_path = testing::TempDir() + "obs_wd_dump.json";
  std::remove(dump_path.c_str());
  StallWatchdog::Config wc;
  wc.period_ns = 20'000'000;  // 20 ms: fast test, same policy as production
  wc.dump_path = dump_path;
  std::atomic<bool> frozen{true};
  std::atomic<std::uint64_t> ticks{0};
  StallWatchdog wd(
      wc,
      [&] {
        StallWatchdog::Progress p;
        if (!frozen.load(std::memory_order_relaxed)) {
          ticks.fetch_add(1, std::memory_order_relaxed);
        }
        p.consumed = ticks.load(std::memory_order_relaxed);
        p.backlog = 10;  // rings never drain
        return p;
      },
      [] { return std::string("{\"consumed\":0}"); }, &ledger, &ring, &reg);
  EXPECT_TRUE(reg.has("rhhh_health_stall_periods_total"));
  wd.start();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (wd.stalls() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(wd.stalls(), 1u) << "frozen progress + backlog must trip a stall";
  EXPECT_GE(wd.stall_episodes(), 1u);
  EXPECT_GE(reg.value("rhhh_health_stall_periods_total"), 1.0);
  const std::string dump = wd.last_dump();
  EXPECT_NE(dump.find("\"reason\":\"no_progress\""), std::string::npos);
  EXPECT_NE(dump.find("\"certificates\":["), std::string::npos);
  EXPECT_NE(dump.find("\"epoch\":7"), std::string::npos);
  EXPECT_NE(dump.find("\"trace\":"), std::string::npos);
  EXPECT_NE(dump.find("\"stats\":{"), std::string::npos);
  EXPECT_NE(dump.find("\"backlog\":10"), std::string::npos);
  // The flight recorder reached disk, readable and identical.
  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good()) << "flight-recorder file missing: " << dump_path;
  std::stringstream file_body;
  file_body << in.rdbuf();
  EXPECT_NE(file_body.str().find("\"reason\":\"no_progress\""),
            std::string::npos);
  // kStall landed in the trace ring (arg1 carries the backlog).
  bool saw_stall = false;
  for (const obs::TraceRecord& r : ring.dump()) {
    if (r.event == TraceEvent::kStall) {
      saw_stall = true;
      EXPECT_EQ(r.arg1, 10u);
    }
  }
  EXPECT_TRUE(saw_stall);
  // Progress re-arms the episode counter: no new episode while advancing.
  frozen.store(false, std::memory_order_relaxed);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::uint64_t episodes_after_recovery = wd.stall_episodes();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(wd.stall_episodes(), episodes_after_recovery)
      << "advancing progress must not open new stall episodes";
  wd.stop();
  wd.stop();  // idempotent
  std::remove(dump_path.c_str());
}

/// Acceptance criterion: a deliberately stalled engine (worker parked via
/// the test hook while records sit in its rings) is detected by the
/// engine-integrated watchdog, with a readable flight-recorder dump.
TEST(ObsHealthWatchdog, DeliberatelyStalledEngineIsDetected) {
  MetricsRegistry reg;
  const std::string dump_path = testing::TempDir() + "obs_engine_stall.json";
  std::remove(dump_path.c_str());
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.producers = 1;
  cfg.metrics = &reg;
  // Drop-tail: a kBlock producer would spin forever against the parked
  // worker; with drop-tail the flush returns and the full ring IS the
  // backlog the watchdog must see.
  cfg.overflow = OverflowPolicy::kDropTail;
  cfg.health.watchdog_millis = 20;
  cfg.health.dump_path = dump_path;
  HhhEngine eng(cfg);
  ASSERT_NE(eng.health(), nullptr);
  ASSERT_NE(eng.watchdog(), nullptr);
  eng.test_block_worker(0);  // park the only consumer before it ever runs
  eng.start();
  HhhEngine::Producer& p = eng.producer(0);
  Xoroshiro128 rng(11);
  for (int i = 0; i < 50000; ++i) p.ingest(Key128{rng(), rng()});
  p.flush();  // ring now holds backlog no one is draining
  // Steady state (frozen consumed + backlog) needs two watchdog samples:
  // detection within 2 periods of the first post-stall sample. The poll
  // deadline is generous for loaded CI machines; typical detection is
  // ~2-3 periods.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (eng.watchdog()->stalls() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(eng.watchdog()->stalls(), 1u)
      << "a parked worker with ring backlog must read as a stall";
  EXPECT_GE(eng.watchdog()->stall_episodes(), 1u);
  const std::string dump = eng.watchdog()->last_dump();
  EXPECT_NE(dump.find("\"reason\":\"no_progress\""), std::string::npos);
  EXPECT_NE(dump.find("\"stats\":{"), std::string::npos);
  EXPECT_NE(dump.find("\"window_epochs\""), std::string::npos);
  std::ifstream in(dump_path);
  EXPECT_TRUE(in.good()) << "flight-recorder file missing: " << dump_path;
  eng.test_unblock_workers();
  eng.stop();
  // The unparked worker's shutdown drain recovers every queued record.
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.offered, s.consumed + s.dropped);
  EXPECT_GT(s.consumed, 0u);
  std::remove(dump_path.c_str());
}

/// A cut one shard never reaches reads as an overdue rotation, not as a
/// stall of the whole engine: worker 1 is parked, traffic keeps flowing
/// through worker 0 (which keeps rotating, up to history_depth windows
/// ahead), so consumed advances every period and the watchdog must report
/// rotation_overdue, counted from the posting of the cut worker 1 owes.
TEST(ObsHealthWatchdog, CutOneShardNeverReachesIsOverdue) {
  MetricsRegistry reg;
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.producers = 1;
  cfg.metrics = &reg;
  cfg.overflow = OverflowPolicy::kDropTail;  // worker 1's lane fills and drops
  cfg.epoch_packets = 1'000;
  cfg.history_depth = 64;  // worker 0 stays busy long after the first cut
  cfg.monitor.eps = 0.05;  // small lattices: 2 x 65 of them
  cfg.health.watchdog_millis = 20;
  HhhEngine eng(cfg);
  eng.test_block_worker(1);
  eng.start();
  HhhEngine::Producer& p = eng.producer(0);
  Xoroshiro128 rng(13);
  std::uint64_t consumed_at_first_cut = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (eng.watchdog()->stall_episodes() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 200; ++i) p.ingest(Key128{rng(), rng()});
    p.flush();
    if (consumed_at_first_cut == 0 && eng.stats().offered >= cfg.epoch_packets) {
      consumed_at_first_cut = eng.stats().consumed;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(eng.watchdog()->stall_episodes(), 1u);
  const std::string dump = eng.watchdog()->last_dump();
  EXPECT_NE(dump.find("\"reason\":\"rotation_overdue\""), std::string::npos) << dump;
  EXPECT_EQ(dump.find("\"reason\":\"no_progress\""), std::string::npos);
  EXPECT_GT(eng.stats().consumed, consumed_at_first_cut) << "worker 0 kept consuming";
  EXPECT_EQ(eng.window_epochs(), 0u) << "worker 1 never rotated at the first cut";
  eng.test_unblock_workers();
  eng.stop();
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.offered, s.consumed + s.dropped);
  EXPECT_GT(s.window_epochs, 0u);
}

// ------------------------------------------------------------ exporter ----

/// Every route answers on an ephemeral port; stop() is idempotent.
TEST(ObsExporter, ServesAllRoutes) {
  MetricsRegistry reg;
  reg.counter("obs_exp_total", "served").add(11);
  TraceRing ring(32);
  ring.record(TraceEvent::kScrape, 123, 1, 0);
  MetricsExporter exp(reg, &ring);
  exp.start(0);
  ASSERT_TRUE(exp.running());
  ASSERT_NE(exp.port(), 0);

  const std::string metrics = obs::http_get_local(exp.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("obs_exp_total 11"), std::string::npos);

  const std::string json = obs::http_get_local(exp.port(), "/metrics.json");
  EXPECT_NE(json.find("\"obs_exp_total\""), std::string::npos);

  const std::string trace = obs::http_get_local(exp.port(), "/trace");
  EXPECT_NE(trace.find("\"scrape\""), std::string::npos);

  const std::string health = obs::http_get_local(exp.port(), "/healthz");
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string missing = obs::http_get_local(exp.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  EXPECT_GE(exp.scrapes(), 5u);
  exp.stop();
  EXPECT_FALSE(exp.running());
  exp.stop();  // idempotent
}

/// /trace?n=K serves only the newest K events; bare /trace is unlimited
/// and a non-numeric n falls back to the full dump.
TEST(ObsExporter, TraceQueryLimitsToNewestEvents) {
  MetricsRegistry reg;
  TraceRing ring(32);
  for (std::int64_t i = 0; i < 10; ++i) {
    ring.record(TraceEvent::kScrape, i, static_cast<std::uint64_t>(i), 0);
  }
  MetricsExporter exp(reg, &ring);
  exp.start(0);
  const auto count_events = [](const std::string& body) {
    std::size_t n = 0;
    for (std::size_t p = body.find("\"seq\":"); p != std::string::npos;
         p = body.find("\"seq\":", p + 1)) {
      ++n;
    }
    return n;
  };
  const std::string all = obs::http_get_local(exp.port(), "/trace");
  EXPECT_EQ(count_events(all), 10u);
  const std::string three = obs::http_get_local(exp.port(), "/trace?n=3");
  EXPECT_NE(three.find("200 OK"), std::string::npos);
  EXPECT_EQ(count_events(three), 3u);
  EXPECT_NE(three.find("\"seq\":9"), std::string::npos) << "newest kept";
  EXPECT_EQ(three.find("\"seq\":0,"), std::string::npos) << "oldest trimmed";
  const std::string none = obs::http_get_local(exp.port(), "/trace?n=0");
  EXPECT_EQ(count_events(none), 0u);
  // "recorded" still reports the full count even when the dump is trimmed.
  EXPECT_NE(none.find("\"recorded\":10"), std::string::npos);
  const std::string junk = obs::http_get_local(exp.port(), "/trace?n=zap");
  EXPECT_EQ(count_events(junk), 10u);
  exp.stop();
}

/// /health 404s without a source, serves the ledger once attached, and
/// 404s again after detach -- the exporter-before-engine construction
/// order the demos use.
TEST(ObsExporter, HealthRouteFollowsAttachedLedger) {
  MetricsRegistry reg;
  MetricsExporter exp(reg);
  exp.start(0);
  EXPECT_NE(obs::http_get_local(exp.port(), "/health").find("404"),
            std::string::npos);
  HealthLedger ledger(nullptr, 4);
  AccuracyCertificate c;
  c.epoch = 42;
  c.stream_length = 99;
  ledger.stamp(c);
  exp.set_health_source(&ledger);
  const std::string body = obs::http_get_local(exp.port(), "/health");
  EXPECT_NE(body.find("200 OK"), std::string::npos);
  EXPECT_NE(body.find("application/json"), std::string::npos);
  EXPECT_NE(body.find("\"certificates\":["), std::string::npos);
  EXPECT_NE(body.find("\"epoch\":42"), std::string::npos);
  exp.set_health_source(nullptr);
  EXPECT_NE(obs::http_get_local(exp.port(), "/health").find("404"),
            std::string::npos);
  exp.stop();
}

// ------------------------------------------------- malformed requests ----

/// Send an arbitrary byte payload (optionally half-closing the write side)
/// and return whatever the exporter answers -- http_get_local always forms
/// valid GETs, so the 4xx paths need a raw client.
std::string raw_http(std::uint16_t port, const std::string& payload) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  obs::detail::send_all(fd, payload);
  ::shutdown(fd, SHUT_WR);
  std::string resp;
  char buf[4096];
  struct pollfd pfd = {fd, POLLIN, 0};
  while (true) {
    const int rc = ::poll(&pfd, 1, 5000);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) break;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

/// Non-GET methods, unparseable request lines, and heads exceeding the
/// read cap each get a clean 4xx and a close -- never a hang (the 5 s
/// client poll timeout above is the hang detector).
TEST(ObsExporterMalformed, BadRequestsGetClean4xxAndClose) {
  MetricsRegistry reg;
  reg.counter("obs_malformed_total").add(1);
  MetricsExporter exp(reg);
  exp.start(0);

  const std::string post =
      raw_http(exp.port(), "POST /metrics HTTP/1.0\r\nHost: x\r\n\r\n");
  EXPECT_NE(post.find("405 Method Not Allowed"), std::string::npos);
  EXPECT_NE(post.find("Connection: close"), std::string::npos);

  const std::string junk = raw_http(exp.port(), "garbage\r\n\r\n");
  EXPECT_NE(junk.find("400 Bad Request"), std::string::npos);

  const std::string empty = raw_http(exp.port(), "");
  EXPECT_NE(empty.find("400 Bad Request"), std::string::npos)
      << "a client that closes without sending still gets an answer";

  // An oversized request line: > 16 KiB with no header terminator.
  const std::string oversized = "GET /" + std::string(20 * 1024, 'a');
  const std::string too_long = raw_http(exp.port(), oversized);
  EXPECT_NE(too_long.find("414 URI Too Long"), std::string::npos);

  // The exporter survived all of it and still serves real scrapes.
  const std::string ok = obs::http_get_local(exp.port(), "/metrics");
  EXPECT_NE(ok.find("200 OK"), std::string::npos);
  EXPECT_NE(ok.find("obs_malformed_total 1"), std::string::npos);
  EXPECT_GE(exp.scrapes(), 5u);
  exp.stop();
}

// ------------------------------------------------- EINTR resilience ----

std::atomic<int> g_sigusr1_hits{0};
extern "C" void obs_test_on_sigusr1(int) {
  g_sigusr1_hits.fetch_add(1, std::memory_order_relaxed);
}

/// Installs a SIGUSR1 handler WITHOUT SA_RESTART -- blocking syscalls in
/// the signaled thread return EINTR instead of resuming transparently,
/// which is exactly the condition the exporter's retry loops must survive.
/// Restores the previous disposition on scope exit.
struct SigusrGuard {
  struct sigaction old {};
  SigusrGuard() {
    struct sigaction sa {};
    sa.sa_handler = obs_test_on_sigusr1;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // deliberately NOT SA_RESTART
    sigaction(SIGUSR1, &sa, &old);
  }
  ~SigusrGuard() { sigaction(SIGUSR1, &old, nullptr); }
};

/// send_all must deliver the whole payload even when signals interrupt the
/// blocked send() mid-transfer (pre-fix it treated EINTR as "client went
/// away" and silently truncated the response).
TEST(ObsExporterEintr, SendAllDeliversAcrossInterruptedWrites) {
  SigusrGuard sig;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Tiny send buffer: the 1 MiB payload forces send() to block over and
  // over, maximizing the window a signal can land in.
  const int sndbuf = 4096;
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  std::string payload(1 << 20, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + i % 26);
  }
  std::atomic<bool> done{false};
  std::thread sender([&] {
    obs::detail::send_all(fds[0], payload);
    ::shutdown(fds[0], SHUT_WR);
    done.store(true, std::memory_order_relaxed);
  });
  const pthread_t sender_h = sender.native_handle();
  std::string got;
  char buf[1024];
  std::size_t since_sleep = 0;
  for (;;) {
    if (!done.load(std::memory_order_relaxed)) pthread_kill(sender_h, SIGUSR1);
    const ssize_t n = ::recv(fds[1], buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // 0 = sender shut down after a complete send_all
    got.append(buf, static_cast<std::size_t>(n));
    // Drain slower than the sender fills, so it spends its time blocked in
    // send() where the signals actually bite.
    since_sleep += static_cast<std::size_t>(n);
    if (since_sleep >= 64 * 1024) {
      since_sleep = 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  sender.join();
  ::close(fds[0]);
  ::close(fds[1]);
  EXPECT_EQ(got.size(), payload.size());
  EXPECT_EQ(got, payload);
  EXPECT_GT(g_sigusr1_hits.load(std::memory_order_relaxed), 0);
}

/// read_request must keep reading across EINTR on both poll() and recv():
/// a signal while parked between the two halves of a split request header
/// must not truncate the request (pre-fix the poll error aborted it).
TEST(ObsExporterEintr, ReadRequestReadsAcrossInterruptedPoll) {
  SigusrGuard sig;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string req_out;
  std::thread reader([&] { req_out = obs::detail::read_request(fds[1]); });
  const pthread_t reader_h = reader.native_handle();
  const std::string part1 = "GET /metrics HTT";
  const std::string part2 = "P/1.0\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::send(fds[0], part1.data(), part1.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(part1.size()));
  // The reader consumed part1 and is parked in poll() waiting for the rest
  // of the header; interrupt it repeatedly before sending the remainder.
  for (int i = 0; i < 50; ++i) {
    pthread_kill(reader_h, SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(::send(fds[0], part2.data(), part2.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(part2.size()));
  reader.join();
  ::close(fds[0]);
  ::close(fds[1]);
  EXPECT_EQ(req_out, part1 + part2);
}

/// End to end: a full /metrics scrape survives signals hammering the
/// serving thread mid-response. The response is larger than the socket
/// buffers and the client reads slowly, so the server blocks in send()
/// where an unretried EINTR would cut the body short of Content-Length.
TEST(ObsExporterEintr, ScrapeSurvivesInterruptedWrite) {
  SigusrGuard sig;
  MetricsRegistry reg;
  for (int i = 0; i < 4000; ++i) {
    reg.counter("obs_eintr_padding_counter_number_" + std::to_string(i),
                "padding to outgrow the socket buffers")
        .add(static_cast<std::uint64_t>(i));
  }
  MetricsExporter exp(reg);
  exp.start(0);  // the serving thread inherits an unblocked SIGUSR1 mask
  ASSERT_NE(exp.port(), 0);
  // Block SIGUSR1 in this thread so the process-directed kills below are
  // delivered to the serving thread (the only unblocked candidate).
  sigset_t set, oldmask;
  sigemptyset(&set);
  sigaddset(&set, SIGUSR1);
  pthread_sigmask(SIG_BLOCK, &set, &oldmask);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(exp.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string req = "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::send(fd, req.data(), req.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(req.size()));
  std::string resp;
  char buf[512];
  for (;;) {
    ::kill(::getpid(), SIGUSR1);
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ::close(fd);
  pthread_sigmask(SIG_SETMASK, &oldmask, nullptr);
  exp.stop();

  const std::size_t hdr_end = resp.find("\r\n\r\n");
  ASSERT_NE(hdr_end, std::string::npos) << "no complete header in response";
  const std::size_t cl_pos = resp.find("Content-Length: ");
  ASSERT_NE(cl_pos, std::string::npos);
  const std::size_t declared = std::stoull(resp.substr(cl_pos + 16));
  EXPECT_EQ(resp.size() - (hdr_end + 4), declared)
      << "body truncated: an EINTR mid-send aborted the response";
  EXPECT_NE(resp.find("obs_eintr_padding_counter_number_3999"),
            std::string::npos);
}

/// Acceptance criterion: scraping /metrics while an engine ingests at full
/// rate returns live counters WITHOUT quiescing -- ingestion keeps making
/// progress between scrapes and epochs() stays untouched by the scrape.
TEST(ObsExporter, ScrapesLiveEngineWithoutQuiescing) {
  MetricsRegistry reg;
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.producers = 1;
  cfg.metrics = &reg;
  HhhEngine eng(cfg);
  eng.start();

  MetricsExporter exp(reg, &TraceRing::global());
  exp.start(0);

  std::atomic<bool> stop{false};
  std::thread producer([&] {
    HhhEngine::Producer& p = eng.producer(0);
    Xoroshiro128 rng(7);
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 512; ++i) p.ingest(Key128{rng(), rng()});
    }
    p.flush();
  });

  // Wait (bounded) for the producer's first published batch: otherwise
  // the five scrapes can finish before its thread is first scheduled.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (eng.producer(0).offered() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::uint64_t last_offered = 0;
  for (int scrape = 0; scrape < 5; ++scrape) {
    const std::string body = obs::http_get_local(exp.port(), "/metrics");
    ASSERT_NE(body.find("200 OK"), std::string::npos);
    EXPECT_NE(body.find("rhhh_engine_offered"), std::string::npos);
    EXPECT_NE(body.find("rhhh_engine_push_batch_ns"), std::string::npos);
    const std::uint64_t now_offered = eng.producer(0).offered();
    EXPECT_GE(now_offered, last_offered);
    last_offered = now_offered;
  }
  EXPECT_EQ(eng.epochs(), 0u) << "a scrape must never force an epoch quiesce";
  EXPECT_GT(last_offered, 0u) << "ingestion ran concurrently with scrapes";

  stop.store(true, std::memory_order_relaxed);
  producer.join();
  exp.stop();
  eng.stop();
  // After stop + flush the conservation identity is exact.
  EXPECT_EQ(static_cast<std::uint64_t>(reg.value("rhhh_engine_offered")),
            static_cast<std::uint64_t>(reg.value("rhhh_engine_consumed")) +
                static_cast<std::uint64_t>(reg.value("rhhh_engine_dropped")));
}

/// Engine destruction unregisters its `this`-capturing samplers; the
/// registry-owned histograms/gauges stay (cumulative across engines).
TEST(ObsEngineMetrics, DestructorUnregistersEngineOwnedSamplers) {
  MetricsRegistry reg;
  {
    EngineConfig cfg;
    cfg.workers = 1;
    cfg.producers = 1;
    cfg.metrics = &reg;
    HhhEngine eng(cfg);
    EXPECT_TRUE(reg.has("rhhh_engine_offered"));
    EXPECT_TRUE(reg.has("rhhh_engine_ring_occupancy{ring=\"p0w0\"}"));
  }
  EXPECT_FALSE(reg.has("rhhh_engine_offered"))
      << "per-engine gauge_fns must not dangle past the engine";
  EXPECT_FALSE(reg.has("rhhh_engine_ring_occupancy{ring=\"p0w0\"}"));
  EXPECT_TRUE(reg.has("rhhh_engine_push_batch_ns"))
      << "registry-owned instruments survive the engine";
  // A telemetry=off engine registers nothing.
  MetricsRegistry quiet;
  EngineConfig off;
  off.workers = 1;
  off.producers = 1;
  off.telemetry = false;
  off.metrics = &quiet;
  const HhhEngine dark(off);
  EXPECT_EQ(quiet.size(), 0u);
}

/// The engine's counter table: every rhhh_engine_* counter mirror and
/// every key of the watchdog dump's "stats" object reads the stats() field
/// it names. The run makes at least six of those fields distinct and
/// non-zero (drops, archived windows, budget and manual rotations,
/// snapshots, a trend cache hit, drift), so two swapped rows fail here.
TEST(ObsEngineMetrics, CounterMirrorsAndDumpMatchStats) {
  using Field = std::uint64_t EngineStats::*;
  const std::vector<std::pair<const char*, Field>> fields = {
      {"offered", &EngineStats::offered},
      {"consumed", &EngineStats::consumed},
      {"dropped", &EngineStats::dropped},
      {"backpressure_waits", &EngineStats::backpressure_waits},
      {"epochs", &EngineStats::epochs},
      {"window_epochs", &EngineStats::window_epochs},
      {"archived_windows", &EngineStats::archived_windows},
      {"archive_queue_drops", &EngineStats::archive_queue_drops},
      {"archive_errors", &EngineStats::archive_errors},
      {"trend_cache_hits", &EngineStats::trend_cache_hits},
      {"trend_sealed_merges", &EngineStats::trend_sealed_merges},
      {"budget_rotations", &EngineStats::budget_rotations},
      {"rotation_drift_ns_total", &EngineStats::rotation_drift_ns_total},
      {"late_rotations", &EngineStats::late_rotations},
  };
  // The dump's "stats" object as key -> value.
  const auto dump_stats = [](const std::string& dump) {
    std::vector<std::pair<std::string, std::uint64_t>> kv;
    const std::size_t open = dump.find("\"stats\":{");
    if (open == std::string::npos) return kv;
    const std::size_t close = dump.find('}', open);
    std::size_t i = open + 9;
    while (i < close) {
      const std::size_t q = dump.find('"', i + 1);
      const std::string key = dump.substr(i + 1, q - i - 1);
      const std::size_t end = std::min(dump.find(',', q), close);
      kv.emplace_back(key, std::stoull(dump.substr(q + 2, end - q - 2)));
      i = end + 1;
    }
    return kv;
  };

  MetricsRegistry reg;
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "obs_counter_table";
  std::filesystem::remove_all(dir);
  EngineConfig cfg;
  cfg.workers = 1;  // one consumer: parking it freezes every counter
  cfg.producers = 1;
  cfg.metrics = &reg;
  cfg.overflow = OverflowPolicy::kDropTail;
  cfg.ring_capacity = 1024;
  cfg.epoch_packets = 5'000;
  cfg.history_depth = 2;
  cfg.archive.dir = dir.string();
  cfg.archive.queue_windows = 64;
  cfg.health.watchdog_millis = 20;
  HhhEngine eng(cfg);
  eng.start();
  const auto wait_for = [](const auto& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return done();
  };
  const auto settled = [&] {
    const EngineStats s = eng.stats();
    return s.consumed + s.dropped == s.offered;
  };
  // Chunks below the ring's capacity, each consumed before the next: a
  // dozen budget rotations, with drift.
  HhhEngine::Producer& p = eng.producer(0);
  Xoroshiro128 rng(5);
  for (int chunk = 0; chunk < 60; ++chunk) {
    for (int i = 0; i < 1'000; ++i) p.ingest(Key128{rng(), rng()});
    p.flush();
    ASSERT_TRUE(wait_for(settled));
  }
  eng.rotate_epoch();  // manual: budget_rotations < window_epochs
  (void)eng.trend_snapshot();
  (void)eng.trend_snapshot();  // merges nothing: a trend cache hit
  ASSERT_TRUE(wait_for([&] {
    const EngineStats s = eng.stats();
    return s.archived_windows + s.archive_queue_drops + s.archive_errors ==
           s.window_epochs;
  }));

  // Freeze: park the only worker and overfill its ring (more drops, and a
  // backlog no one drains), so the watchdog dumps a counter snapshot that
  // stays exact until the worker is released. An earlier episode ends at
  // the first sample without a stall, so the next one is the freeze's.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const std::uint64_t episodes = eng.watchdog()->stall_episodes();
  eng.test_block_worker(0);
  for (int i = 0; i < 4'000; ++i) p.ingest(Key128{rng(), rng()});
  p.flush();
  ASSERT_TRUE(
      wait_for([&] { return eng.watchdog()->stall_episodes() > episodes; }));
  const std::vector<std::pair<std::string, std::uint64_t>> dumped =
      dump_stats(eng.watchdog()->last_dump());
  const EngineStats frozen = eng.stats();
  ASSERT_EQ(dumped.size(), fields.size());
  for (std::size_t i = 0; i < fields.size(); ++i) {
    EXPECT_EQ(dumped[i].first, fields[i].first);
    EXPECT_EQ(dumped[i].second, frozen.*fields[i].second) << fields[i].first;
  }
  eng.test_unblock_workers();
  eng.stop();

  const EngineStats s = eng.stats();
  std::vector<std::uint64_t> distinct;
  std::size_t mirrors = 0;
  for (const auto& [key, field] : fields) {
    const std::string family = std::string("rhhh_engine_") + key;
    if (reg.has(family)) {
      ++mirrors;
      EXPECT_EQ(static_cast<std::uint64_t>(reg.value(family)), s.*field) << family;
    }
    if (s.*field != 0) distinct.push_back(s.*field);
  }
  EXPECT_EQ(mirrors, fields.size() - 1) << "all but rotation_drift_ns_total";
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  EXPECT_GE(distinct.size(), 6u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rhhh
