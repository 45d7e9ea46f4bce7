// Trend conformance: the acceptance criterion for the K-deep WindowRing.
// Both the single-threaded WindowedHhhMonitor and the sharded HhhEngine
// answer a depth-K (K >= 4) trend query whose per-epoch estimates match a
// single-threaded exact replay of the same stream within the Theorem 6.11
// error bound (eps_a * N_w + 2 Z sqrt(N_w * V), per window), with fixed
// seeds throughout -- a normal ctest, no flakiness budget.
//
// The stream is a DDoS-style ramp: heavy-tailed background traffic plus a
// scattered-source flood toward one victim whose share grows epoch over
// epoch, exactly the k-epoch growth curve trend() exists to expose.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/windowed.hpp"
#include "engine/engine.hpp"
#include "net/ipv4.hpp"
#include "stats/normal.hpp"
#include "store/archive.hpp"
#include "trace/trace_gen.hpp"
#include "util/random.hpp"

namespace rhhh {
namespace {

constexpr std::uint64_t kEpoch = 150000;  ///< packets per window
constexpr int kFullEpochs = 6;            ///< completed windows in the stream
constexpr std::uint64_t kTail = kEpoch / 2;  ///< partial live window
constexpr double kEps = 0.05;
constexpr double kDelta = 0.05;

/// Attack share per epoch index (the planted ramp), in units of 1/1000.
constexpr std::uint32_t kRampPerMille[kFullEpochs + 1] = {0,   50,  100, 200,
                                                          300, 400, 450};

struct RampStream {
  std::vector<Key128> keys;                ///< the whole stream, in order
  std::vector<std::uint64_t> exact_attack; ///< per-epoch exact attack mass
  Prefix attack16;      ///< the (66.66/16 -> victim) aggregate under test
  Prefix attack_bottom; ///< one fully-specified flow inside it
  std::uint64_t n() const { return keys.size(); }
};

/// One deterministic stream shared by the monitor and the engine runs, with
/// the exact per-epoch mass of the attack aggregate counted alongside.
RampStream make_ramp_stream(const Hierarchy& h) {
  RampStream s;
  const Ipv4 attack_net = ipv4(66, 66, 0, 0);
  const Ipv4 victim = ipv4(203, 0, 113, 9);
  const std::uint32_t a16 = h.node_index(2, 0);  // drop 2 src bytes, keep dst
  s.attack16 = Prefix{a16, h.mask_key(a16, Key128::from_pair(attack_net, victim))};
  s.attack_bottom =
      Prefix{h.bottom(), Key128::from_pair(attack_net | 0x0102u, victim)};

  TraceConfig tc = trace_preset("chicago16");
  tc.seed = 40;
  TraceGenerator gen(tc);
  Xoroshiro128 rng(41);
  const std::uint64_t total = kEpoch * kFullEpochs + kTail;
  s.keys.reserve(total);
  s.exact_attack.assign(kFullEpochs + 1, 0);
  for (std::uint64_t i = 0; i < total; ++i) {
    const std::size_t e = static_cast<std::size_t>(i / kEpoch);
    Key128 k;
    if (rng.bounded(1000) < kRampPerMille[e]) {
      k = Key128::from_pair(attack_net | rng.bounded(1 << 16), victim);
    } else {
      k = h.key_of(gen.next());
    }
    // Exact per-epoch mass of the probe aggregate (background flows can
    // land inside 66.66/16 -> victim too, so count by mask, not by branch).
    if (h.mask_key(a16, k) == s.attack16.key) ++s.exact_attack[e];
    s.keys.push_back(k);
  }
  return s;
}

/// Theorem 6.11 additive bound for one window of length n_w:
/// eps_a * N + 2 Z_{1 - delta/8} sqrt(N * V).
double window_bound(const RhhhSpaceSaving& ref, std::uint64_t n_w) {
  return ref.eps_a() * static_cast<double>(n_w) +
         2.0 * z_value(1.0 - kDelta / 8.0) *
             std::sqrt(static_cast<double>(n_w) * ref.V());
}

TEST(TrendConformance, MonitorDepthSixSharesMatchExactReplay) {
  MonitorConfig cfg;
  cfg.hierarchy = HierarchyKind::kIpv4TwoDimBytes;
  cfg.algorithm = AlgorithmKind::kRhhh;
  cfg.eps = kEps;
  cfg.delta = kDelta;
  cfg.seed = 21;
  WindowedHhhMonitor mon(cfg, kEpoch, /*history_depth=*/6);
  ASSERT_TRUE(mon.converged_epoch()) << "epoch must exceed psi for the bound";

  const Hierarchy& h = mon.hierarchy();
  const RampStream s = make_ramp_stream(h);
  for (const Key128& k : s.keys) mon.update(k);
  ASSERT_EQ(mon.epochs_completed(), static_cast<std::uint64_t>(kFullEpochs));
  ASSERT_EQ(mon.sealed_windows(), 6u);
  ASSERT_EQ(mon.packets_in_epoch(), kTail);

  // Reference lattice for the bound's eps_a / V (same configuration).
  const auto [mode, lp] = lattice_config_of(h, cfg);
  const RhhhSpaceSaving ref(h, mode, lp);

  const auto t = mon.trend(s.attack16);
  ASSERT_EQ(t.size(), 7u);  // 6 sealed + live, oldest first
  std::size_t violations = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::uint64_t n_w = i + 1 < t.size() ? kEpoch : kTail;
    ASSERT_EQ(t[i].stream_length, n_w) << "window " << i;
    const double exact = static_cast<double>(s.exact_attack[i]);
    const double err = std::abs(t[i].estimate - exact);
    if (err > window_bound(ref, n_w)) ++violations;
    // Share is the estimate normalized by this window's own length.
    EXPECT_NEAR(t[i].share, std::min(t[i].estimate / n_w, 1.0), 1e-12);
  }
  // Each window's bound holds w.p. >= 1 - delta: allow one unlucky window.
  EXPECT_LE(violations, 1u) << violations << "/7 windows exceed the bound";

  // The curve exposes the ramp: the newest sealed window's share clearly
  // dominates the quiet first epoch's.
  EXPECT_GT(t[5].share, t[0].share + 0.2);
}

TEST(TrendConformance, EngineDepthFourSharesMatchExactReplay) {
  EngineConfig cfg;
  cfg.monitor.hierarchy = HierarchyKind::kIpv4TwoDimBytes;
  cfg.monitor.algorithm = AlgorithmKind::kRhhh;
  cfg.monitor.eps = kEps;
  cfg.monitor.delta = kDelta;
  cfg.monitor.seed = 22;
  cfg.workers = 4;
  cfg.producers = 1;
  cfg.history_depth = 4;
  HhhEngine eng(cfg);
  const Hierarchy& h = eng.hierarchy();
  const RampStream s = make_ramp_stream(h);

  eng.start();
  HhhEngine::Producer& prod = eng.producer(0);
  std::uint64_t next_rotate = kEpoch;
  for (std::uint64_t i = 0; i < s.n(); ++i) {
    prod.ingest(s.keys[i]);
    if (i + 1 == next_rotate) {
      // Deterministic stream-position rotation on the shared boundary.
      prod.flush();
      eng.rotate_epoch();
      next_rotate += kEpoch;
    }
  }
  prod.flush();
  eng.stop();

  const TrendSnapshot snap = eng.trend_snapshot();
  ASSERT_EQ(snap.window_epochs(), static_cast<std::uint64_t>(kFullEpochs));
  ASSERT_EQ(snap.sealed_windows(), 4u);  // depth-capped: epochs 3..6 retained
  ASSERT_EQ(snap.current_length(), kTail);

  const auto t = snap.trend(s.attack16);
  ASSERT_EQ(t.size(), 5u);  // 4 sealed + live, oldest first
  std::size_t violations = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    // Oldest retained window is epoch index kFullEpochs - 4 = 2.
    const std::size_t e = static_cast<std::size_t>(kFullEpochs) - 4 + i;
    const std::uint64_t n_w = i + 1 < t.size() ? kEpoch : kTail;
    ASSERT_EQ(t[i].stream_length, n_w) << "window " << i;
    const RhhhSpaceSaving& alg =
        i + 1 < t.size() ? snap.window_algorithm(4 - 1 - i) : snap.current_algorithm();
    const double exact = static_cast<double>(s.exact_attack[e]);
    const double err = std::abs(t[i].estimate - exact);
    if (err > window_bound(alg, n_w)) ++violations;
  }
  EXPECT_LE(violations, 1u) << violations << "/5 windows exceed the bound";

  // Ramp visible across the retained engine windows too.
  EXPECT_GT(t[3].share, t[0].share + 0.15);

  // And the sustained-ramp alarm fires on the engine's trend view for the
  // attack aggregate (three consecutive growing windows over the quiet-ish
  // baseline), while being derived from the exact same shares just checked.
  bool alarmed = false;
  for (const SustainedPrefix& sp : snap.emerging_sustained(0.15, 1.5, 3)) {
    if (h.generalizes(sp.now.prefix, s.attack_bottom)) alarmed = true;
  }
  EXPECT_TRUE(alarmed);
}

// ------------------------------------------------- trend snapshot cache ----

namespace golden {

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t digest_set(const Hierarchy& h, const HhhSet& s) {
  std::vector<std::string> lines;
  lines.reserve(s.size());
  for (const HhhCandidate& c : s) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s|%.17g|%.17g", h.format(c.prefix).c_str(),
                  c.f_est, c.c_hat);
    lines.emplace_back(buf);
  }
  std::sort(lines.begin(), lines.end());
  std::uint64_t d = 0xcbf29ce484222325ULL;
  for (const std::string& l : lines) d = fnv1a(d, l);
  return d;
}

}  // namespace golden

TEST(TrendCache, RepeatedPollsReuseSealedMergesUnchanged) {
  EngineConfig cfg;
  cfg.monitor.hierarchy = HierarchyKind::kIpv4TwoDimBytes;
  cfg.monitor.eps = 0.05;
  cfg.monitor.delta = 0.05;
  cfg.monitor.seed = 23;
  cfg.workers = 3;
  cfg.producers = 1;
  cfg.history_depth = 4;
  HhhEngine eng(cfg);
  const Hierarchy& h = eng.hierarchy();
  const RampStream s = make_ramp_stream(h);

  eng.start();
  HhhEngine::Producer& prod = eng.producer(0);
  std::uint64_t next_rotate = kEpoch;
  for (std::uint64_t i = 0; i < s.n(); ++i) {
    prod.ingest(s.keys[i]);
    if (i + 1 == next_rotate) {
      prod.flush();
      eng.rotate_epoch();
      next_rotate += kEpoch;
    }
  }
  prod.flush();
  eng.stop();

  // First poll merges and caches; repeated polls between rotations reuse
  // the sealed merges and must answer identically.
  const TrendSnapshot first = eng.trend_snapshot();
  const TrendSnapshot second = eng.trend_snapshot();
  const TrendSnapshot third = eng.trend_snapshot();
  EXPECT_EQ(eng.stats().trend_cache_hits, 2u);
  EXPECT_EQ(eng.stats().trend_sealed_merges, 4u);  // each window merged once
  ASSERT_EQ(second.sealed_windows(), first.sealed_windows());
  for (std::size_t age = 0; age < first.sealed_windows(); ++age) {
    EXPECT_EQ(second.window_length(age), first.window_length(age));
    EXPECT_EQ(golden::digest_set(h, second.window(age, 0.15)),
              golden::digest_set(h, first.window(age, 0.15)))
        << "age " << age;
    EXPECT_EQ(golden::digest_set(h, third.window(age, 0.15)),
              golden::digest_set(h, first.window(age, 0.15)))
        << "age " << age;
  }
  // The shared merges really are shared (no re-merge): same instances.
  EXPECT_EQ(&first.window_algorithm(0), &second.window_algorithm(0));

  // A rotation shifts the cache instead of clearing it: the next poll
  // merges only the newly sealed window (no hit), and every older age is
  // the very instance the first poll returned, one age further back.
  eng.rotate_epoch();
  const TrendSnapshot after = eng.trend_snapshot();
  EXPECT_EQ(eng.stats().trend_cache_hits, 2u);
  EXPECT_EQ(eng.stats().trend_sealed_merges, 5u);
  ASSERT_EQ(after.sealed_windows(), first.sealed_windows());
  EXPECT_NE(&after.window_algorithm(0), &first.window_algorithm(0));
  for (std::size_t a = 0; a + 1 < first.sealed_windows(); ++a) {
    EXPECT_EQ(&after.window_algorithm(a + 1), &first.window_algorithm(a))
        << "age " << a;
  }
  EXPECT_EQ(golden::digest_set(h, after.window(1, 0.15)),
            golden::digest_set(h, first.window(0, 0.15)));
}

/// A from-scratch network-wide merge of every shard's sealed window `age`,
/// with that window's drops folded in -- what the cache must reproduce.
std::unique_ptr<RhhhSpaceSaving> scratch_merge(const HhhEngine& eng, std::size_t age,
                                               std::uint64_t drops) {
  const auto [mode, lp] = lattice_config_of(eng.hierarchy(), eng.config().monitor);
  auto out = std::make_unique<RhhhSpaceSaving>(eng.hierarchy(), mode, lp);
  for (std::uint32_t w = 0; w < eng.workers(); ++w) out->merge(eng.shard_sealed(w, age));
  if (drops != 0) out->advance_stream(drops);
  return out;
}

TEST(TrendCache, LaggingPollerMatchesFromScratchMerges) {
  EngineConfig cfg;
  cfg.monitor.hierarchy = HierarchyKind::kIpv4TwoDimBytes;
  cfg.monitor.eps = 0.05;
  cfg.monitor.delta = 0.05;
  cfg.monitor.seed = 24;
  cfg.workers = 4;
  cfg.producers = 1;
  cfg.history_depth = 4;
  HhhEngine eng(cfg);
  const Hierarchy& h = eng.hierarchy();
  const RampStream s = make_ramp_stream(h);
  constexpr std::size_t kWindow = 20000;

  eng.start();
  HhhEngine::Producer& prod = eng.producer(0);
  std::size_t next = 0;
  std::uint64_t merges = 0;
  // Between polls the engine rotates j = 1 .. K+1 times: a lag of j costs
  // min(j, retained) merges, and the shifted entries stay exact.
  for (std::size_t j = 1; j <= cfg.history_depth + 1; ++j) {
    for (std::size_t r = 0; r < j; ++r) {
      for (std::size_t i = 0; i < kWindow; ++i) prod.ingest(s.keys[next++]);
      prod.flush();
      eng.rotate_epoch();
    }
    const TrendSnapshot tr = eng.trend_snapshot();
    const std::size_t m = tr.sealed_windows();
    ASSERT_EQ(m, std::min<std::uint64_t>(eng.window_epochs(), cfg.history_depth));
    EXPECT_EQ(eng.stats().trend_sealed_merges - merges, std::min(j, m)) << "lag " << j;
    merges = eng.stats().trend_sealed_merges;
    for (std::size_t age = 0; age < m; ++age) {
      const auto ref = scratch_merge(eng, age, tr.window_drops(age));
      EXPECT_EQ(tr.window_length(age), ref->stream_length())
          << "lag " << j << " age " << age;
      for (const double theta : {0.05, 0.15}) {
        EXPECT_EQ(golden::digest_set(h, tr.window(age, theta)),
                  golden::digest_set(h, ref->output(theta)))
            << "lag " << j << " age " << age << " theta " << theta;
      }
    }
  }
  eng.stop();
  const EngineStats st = eng.stats();
  EXPECT_LE(st.trend_sealed_merges, st.window_epochs);
}

TEST(TrendCache, TwoPollsPerEpochShareAgeZero) {
  // Without and with an archive: the archiver shares the query's merge, so
  // each window is still merged once and persisted as the polls saw it.
  for (const bool archiving : {false, true}) {
    SCOPED_TRACE(archiving ? "archiving" : "no archive");
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        ("rhhh_trend_cache_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    EngineConfig cfg;
    cfg.monitor.hierarchy = HierarchyKind::kIpv4TwoDimBytes;
    cfg.monitor.eps = 0.05;
    cfg.monitor.delta = 0.05;
    cfg.monitor.seed = 25;
    cfg.workers = 2;
    cfg.producers = 1;
    cfg.history_depth = 3;
    if (archiving) cfg.archive.dir = dir.string();
    HhhEngine eng(cfg);
    const RampStream s = make_ramp_stream(eng.hierarchy());
    constexpr std::size_t kWindow = 10000;

    eng.start();
    HhhEngine::Producer& prod = eng.producer(0);
    EXPECT_EQ(eng.trend_snapshot().sealed_windows(), 0u);
    std::vector<TrendSnapshot> polled;
    std::size_t next = 0;
    for (int epoch = 0; epoch < 6; ++epoch) {
      for (std::size_t i = 0; i < kWindow; ++i) prod.ingest(s.keys[next++]);
      prod.flush();
      eng.rotate_epoch();
      // The first poll merges the new window (unless the archiver already
      // did); the second must be served the same instance.
      const TrendSnapshot first = eng.trend_snapshot();
      TrendSnapshot second = eng.trend_snapshot();
      ASSERT_NE(second.sealed_windows(), 0u);
      EXPECT_EQ(&second.window_algorithm(0), &first.window_algorithm(0))
          << "epoch " << epoch;
      EXPECT_EQ(second.window_length(0), first.window_length(0));
      // Polled after every rotation: exactly one merge per sealed window.
      const EngineStats st = eng.stats();
      EXPECT_EQ(st.trend_sealed_merges, st.window_epochs) << "epoch " << epoch;
      polled.push_back(std::move(second));
    }
    eng.stop();
    const EngineStats st = eng.stats();
    EXPECT_EQ(st.trend_sealed_merges, st.window_epochs);
    if (!archiving) continue;

    // Cold read: each epoch's record is the polled age-0 window, byte for
    // byte.
    EXPECT_EQ(st.archived_windows, st.window_epochs);
    const store::WindowArchive ar = store::WindowArchive::open_read(dir.string());
    ASSERT_EQ(ar.windows(), polled.size());
    for (std::size_t i = 0; i < ar.windows(); ++i) {
      const store::ArchivedWindow rec = ar.read(i);
      ASSERT_EQ(rec.meta.epoch, i + 1);
      EXPECT_EQ(store::encode_window(rec.meta, cfg.monitor.hierarchy, *rec.window),
                store::encode_window(rec.meta, cfg.monitor.hierarchy,
                                     polled[i].window_algorithm(0)))
          << "epoch " << rec.meta.epoch;
    }
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace rhhh
