// Tests for the sharded multi-core ingest engine (src/engine/): shard
// routing, config validation, the single-shard == single-LatticeHhh
// equivalence the snapshot path promises, multi-shard coverage against
// exact ground truth, epoch accounting, drop/backpressure accounting, and a
// producer/worker thread stress (the W>=4 case CI runs under ASan/UBSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/monitor.hpp"
#include "engine/engine.hpp"
#include "engine/shard_router.hpp"
#include "eval/ground_truth.hpp"
#include "net/ipv4.hpp"
#include "store/serde.hpp"
#include "trace/trace_gen.hpp"
#include "util/bits.hpp"
#include "util/random.hpp"

namespace rhhh {
namespace {

// ---------------------------------------------------------- ShardRouter ----

TEST(ShardRouterTest, KeyHashIsDeterministicAndInRange) {
  ShardRouter a(ShardPolicy::kKeyHash, 4, 42);
  ShardRouter b(ShardPolicy::kKeyHash, 4, 42);
  Xoroshiro128 rng(1);
  for (int i = 0; i < 10000; ++i) {
    const Key128 k{rng(), rng()};
    const std::uint32_t s = a.route(k);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, b.route(k)) << "same salt must give the same mapping";
    EXPECT_EQ(s, a.route(k)) << "key-hash routing is stateless";
  }
}

TEST(ShardRouterTest, KeyHashSpreadsAcrossShards) {
  ShardRouter r(ShardPolicy::kKeyHash, 4, 7);
  Xoroshiro128 rng(2);
  std::vector<int> hits(4, 0);
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) ++hits[r.route(Key128{rng(), rng()})];
  for (int s = 0; s < 4; ++s) {
    EXPECT_NEAR(hits[s], kDraws / 4, kDraws / 20) << "shard " << s;
  }
}

TEST(ShardRouterTest, RoundRobinCyclesFromStaggeredStart) {
  ShardRouter r(ShardPolicy::kRoundRobin, 3, 0, /*rr_start=*/2);
  const Key128 k{};
  EXPECT_EQ(r.route(k), 2u);
  EXPECT_EQ(r.route(k), 0u);
  EXPECT_EQ(r.route(k), 1u);
  EXPECT_EQ(r.route(k), 2u);
}

// ------------------------------------------------------------ config ----

TEST(EngineConfigTest, Validation) {
  EngineConfig cfg;
  cfg.workers = 0;
  EXPECT_THROW(HhhEngine{cfg}, std::invalid_argument);
  cfg = {};
  cfg.producers = 0;
  EXPECT_THROW(HhhEngine{cfg}, std::invalid_argument);
  cfg = {};
  cfg.batch = 0;
  EXPECT_THROW(HhhEngine{cfg}, std::invalid_argument);
}

TEST(EngineConfigTest, FactoryBuildsConfiguredTopology) {
  EngineConfig cfg;
  cfg.workers = 3;
  cfg.producers = 2;
  cfg.monitor.algorithm = AlgorithmKind::kTenRhhh;
  const std::unique_ptr<HhhEngine> eng = make_engine(cfg);
  EXPECT_EQ(eng->workers(), 3u);
  EXPECT_EQ(eng->producers(), 2u);
  EXPECT_EQ(eng->epochs(), 0u);
  // kTenRhhh resolved V = 10H on every shard.
  EXPECT_EQ(eng->shard(0).V(), 250u);
  EXPECT_TRUE(eng->shard(0).mergeable_with(eng->shard(2)));
}

// ------------------------------------------------- single-shard == one ----

/// Acceptance criterion: a 1-producer / 1-worker engine must be
/// statistically equivalent to a single LatticeHhh over the same trace --
/// same stream length, same error bounds, same heavy hitters.
TEST(EngineTest, SingleShardMatchesSingleLattice) {
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.producers = 1;
  cfg.monitor.eps = 0.05;
  cfg.monitor.delta = 0.05;
  cfg.monitor.seed = 99;
  HhhEngine eng(cfg);

  const Hierarchy h = make_hierarchy(cfg.monitor.hierarchy);
  const auto [mode, lp] = lattice_config_of(h, cfg.monitor);
  RhhhSpaceSaving reference(h, mode, lp);

  const Key128 hot = Key128::from_pair(ipv4(10, 1, 2, 3), ipv4(99, 5, 6, 7));
  constexpr int kN = 200000;
  std::uint64_t true_hot = 0;
  std::vector<Key128> stream;
  stream.reserve(kN);
  {
    Xoroshiro128 rng(123);
    for (int i = 0; i < kN; ++i) {
      if (rng.bounded(10) < 3) {
        stream.push_back(hot);
        ++true_hot;
      } else {
        stream.push_back(
            Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
      }
    }
  }

  eng.start();
  HhhEngine::Producer& prod = eng.producer(0);
  for (const Key128& k : stream) {
    prod.ingest(k);
    reference.update(k);
  }
  prod.flush();
  eng.stop();
  const TrendSnapshot snap = eng.trend_snapshot();

  // Same stream length (lossless ingest, everything flushed and drained).
  ASSERT_EQ(snap.current_length(), static_cast<std::uint64_t>(kN));
  ASSERT_EQ(reference.stream_length(), static_cast<std::uint64_t>(kN));
  const EngineStats& s = snap.stats();
  EXPECT_EQ(s.offered, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.consumed, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.dropped, 0u);

  // Same configuration => same error-bound machinery.
  const RhhhSpaceSaving& merged = snap.current_algorithm();
  EXPECT_EQ(merged.V(), reference.V());
  EXPECT_DOUBLE_EQ(merged.scale(), reference.scale());
  EXPECT_DOUBLE_EQ(merged.correction(), reference.correction());

  // Both estimates of the planted pair obey the same additive bound
  // (Theorem 6.11: eps_a * N + the 2 Z sqrt(NV) sampling slack).
  const Prefix hot_prefix{h.bottom(), hot};
  const double bound =
      reference.eps_a() * kN + reference.correction();
  EXPECT_NEAR(merged.estimate(hot_prefix), static_cast<double>(true_hot), bound);
  EXPECT_NEAR(reference.estimate(hot_prefix), static_cast<double>(true_hot), bound);

  // Both report the planted pair (30% of traffic) at theta = 0.2.
  for (const HhhSet& out : {snap.current(0.2), reference.output(0.2)}) {
    bool found = false;
    for (const HhhCandidate& c : out) {
      if (c.prefix == hot_prefix) found = true;
    }
    EXPECT_TRUE(found);
  }
}

// ------------------------------------------------------- multi-shard ----

/// Sharded ingest + epoch merge must cover every exact HHH of the union
/// stream, whichever routing policy spreads the packets.
class EngineCoverage : public ::testing::TestWithParam<ShardPolicy> {};

TEST_P(EngineCoverage, MergedSnapshotCoversExactHhhs) {
  EngineConfig cfg;
  cfg.workers = 4;
  cfg.producers = 2;
  cfg.policy = GetParam();
  cfg.monitor.eps = 0.02;
  cfg.monitor.delta = 0.05;
  HhhEngine eng(cfg);
  const Hierarchy& h = eng.hierarchy();

  constexpr int kN = 300000;
  std::vector<Key128> stream;
  stream.reserve(kN);
  {
    TraceGenerator gen(trace_preset("sanjose14"));
    for (int i = 0; i < kN; ++i) stream.push_back(h.key_of(gen.next()));
  }
  ExactHhh truth(h);
  for (const Key128& k : stream) truth.add(k);
  const double theta = 0.1;
  const HhhSet exact = truth.compute(theta);
  ASSERT_GT(exact.size(), 0u);

  eng.start();
  // Two producer threads, each ingesting half the stream.
  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < 2; ++p) {
    threads.emplace_back([&, p] {
      HhhEngine::Producer& prod = eng.producer(p);
      for (std::size_t i = p; i < stream.size(); i += 2) prod.ingest(stream[i]);
      prod.flush();
    });
  }
  for (std::thread& t : threads) t.join();
  eng.stop();
  const TrendSnapshot snap = eng.trend_snapshot();

  ASSERT_EQ(snap.current_length(), static_cast<std::uint64_t>(kN));
  const HhhSet out = snap.current(theta);
  for (const HhhCandidate& c : exact) {
    bool covered = out.contains(c.prefix);
    if (!covered) {
      for (const HhhCandidate& o : out) {
        if (h.generalizes(c.prefix, o.prefix) ||
            h.generalizes(o.prefix, c.prefix)) {
          covered = true;
          break;
        }
      }
    }
    EXPECT_TRUE(covered) << to_string(GetParam()) << " missing "
                         << h.format(c.prefix);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, EngineCoverage,
                         ::testing::Values(ShardPolicy::kKeyHash,
                                           ShardPolicy::kRoundRobin),
                         [](const auto& info) {
                           return info.param == ShardPolicy::kKeyHash
                                      ? "KeyHash"
                                      : "RoundRobin";
                         });

TEST(EngineTest, RoundRobinBalancesWorkAndMergeRestoresTotals) {
  EngineConfig cfg;
  cfg.workers = 4;
  cfg.producers = 1;
  cfg.policy = ShardPolicy::kRoundRobin;
  cfg.monitor.algorithm = AlgorithmKind::kMst;  // deterministic counts
  HhhEngine eng(cfg);
  eng.start();
  HhhEngine::Producer& prod = eng.producer(0);
  const Key128 k = Key128::from_pair(ipv4(1, 2, 3, 4), ipv4(5, 6, 7, 8));
  constexpr std::uint64_t kN = 40000;
  for (std::uint64_t i = 0; i < kN; ++i) prod.ingest(k);
  prod.flush();
  eng.stop();
  const TrendSnapshot snap = eng.trend_snapshot();

  // Round-robin spreads the stream exactly evenly over the 4 shards...
  const EngineStats& s = snap.stats();
  ASSERT_EQ(s.per_worker_consumed.size(), 4u);
  for (std::uint32_t w = 0; w < 4; ++w) {
    EXPECT_EQ(s.per_worker_consumed[w], kN / 4) << "worker " << w;
  }
  // ... and the merged MST lattice recovers the exact network-wide count.
  EXPECT_EQ(snap.current_length(), kN);
  const Prefix p{eng.hierarchy().bottom(), k};
  EXPECT_DOUBLE_EQ(snap.current_algorithm().estimate(p), static_cast<double>(kN));
}

// ---------------------------------------------------- epochs and drops ----

TEST(EngineTest, EpochSnapshotsAdvanceAndAccumulate) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.producers = 1;
  HhhEngine eng(cfg);
  eng.start();
  HhhEngine::Producer& prod = eng.producer(0);
  Xoroshiro128 rng(7);
  const auto feed = [&](int n) {
    for (int i = 0; i < n; ++i) {
      prod.ingest(Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
    }
    prod.flush();
  };

  feed(30000);
  const TrendSnapshot first = eng.trend_snapshot();
  EXPECT_EQ(first.stats().epochs, 1u);
  EXPECT_EQ(first.current_length(), 30000u);
  EXPECT_EQ(eng.epochs(), 1u);

  // The engine keeps ingesting across epochs; the next snapshot sees the
  // cumulative stream, not just the delta.
  feed(20000);
  const TrendSnapshot second = eng.trend_snapshot();
  EXPECT_EQ(second.stats().epochs, 2u);
  EXPECT_EQ(second.current_length(), 50000u);
  eng.stop();
}

TEST(EngineTest, DropTailAccountingAndStreamLengthFold) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.producers = 1;
  cfg.ring_capacity = 16;
  cfg.batch = 8;
  cfg.overflow = OverflowPolicy::kDropTail;
  HhhEngine eng(cfg);  // never started: rings fill, tails drop
  HhhEngine::Producer& prod = eng.producer(0);
  Xoroshiro128 rng(11);
  constexpr std::uint64_t kN = 10000;
  for (std::uint64_t i = 0; i < kN; ++i) {
    prod.ingest(Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
  }
  prod.flush();

  EngineStats s = eng.stats();
  EXPECT_EQ(s.offered, kN);
  EXPECT_GT(s.dropped, 0u);
  EXPECT_EQ(s.consumed, 0u);
  EXPECT_EQ(s.per_ring_dropped.size(), 2u);
  std::uint64_t per_ring_sum = 0;
  for (const std::uint64_t d : s.per_ring_dropped) per_ring_sum += d;
  EXPECT_EQ(per_ring_sum, s.dropped);
  // Everything not dropped is still sitting in the rings.
  EXPECT_LE(kN - s.dropped, 2u * 16u);

  // Drops count toward N (they were offered on the wire), like
  // DistributedMeasurement::advance_stream.
  const TrendSnapshot before = eng.trend_snapshot();
  EXPECT_EQ(before.current_length(), s.dropped);

  // Starting the workers drains the rings; the final snapshot accounts for
  // every offered packet as consumed or dropped.
  eng.start();
  eng.stop();
  const TrendSnapshot after = eng.trend_snapshot();
  s = after.stats();
  EXPECT_EQ(s.consumed + s.dropped, kN);
  EXPECT_EQ(after.current_length(), kN);
}

/// Regression: on a windowed engine the query's current window folds in
/// only the drops counted since the last rotation -- the earlier ones
/// belong to the sealed window, not to every later query.
TEST(EngineTest, SnapshotFoldsOnlyPostBoundaryDrops) {
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.producers = 1;
  cfg.ring_capacity = 64;
  cfg.batch = 8;
  cfg.overflow = OverflowPolicy::kDropTail;
  HhhEngine eng(cfg);
  HhhEngine::Producer& prod = eng.producer(0);
  Xoroshiro128 rng(29);
  const auto blast = [&](int n) {
    for (int i = 0; i < n; ++i) {
      prod.ingest(Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
    }
    prod.flush();
  };
  eng.test_block_worker(0);  // park the only consumer before it ever runs
  eng.start();
  blast(5000);
  const std::uint64_t sealed_drops = eng.stats().dropped;
  ASSERT_GT(sealed_drops, 0u);
  eng.test_unblock_workers();
  eng.rotate_epoch();  // the backlog and every drop so far go to window 0

  eng.test_block_worker(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));  // let it park
  blast(5000);
  ASSERT_GT(eng.stats().dropped, sealed_drops) << "the parked worker drops again";
  eng.test_unblock_workers();
  eng.stop();  // drains the backlog into the live window

  const TrendSnapshot snap = eng.trend_snapshot();
  const std::uint64_t post_drops = snap.stats().dropped - sealed_drops;
  EXPECT_EQ(snap.current_length(), eng.shard(0).stream_length() + post_drops);
  EXPECT_EQ(snap.current_drops(), post_drops);
  ASSERT_NE(snap.sealed_windows(), 0u);
  EXPECT_EQ(snap.window_drops(0), sealed_drops);
  // Every offered packet lands in exactly one window.
  EXPECT_EQ(snap.window_length(0) + snap.current_length(), snap.stats().offered);
}

/// Regression: a snapshot taken before start() must not strand workers
/// started afterwards at the already-resumed epoch boundary (the resume
/// mark has to advance with the request even when nobody is parked).
TEST(EngineTest, SnapshotBeforeStartDoesNotWedgeWorkers) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.producers = 1;
  HhhEngine eng(cfg);

  const TrendSnapshot empty = eng.trend_snapshot();  // pre-start epoch
  EXPECT_EQ(empty.stats().epochs, 1u);
  EXPECT_EQ(empty.current_length(), 0u);

  eng.start();
  HhhEngine::Producer& prod = eng.producer(0);
  Xoroshiro128 rng(17);
  constexpr std::uint64_t kN = 50000;
  for (std::uint64_t i = 0; i < kN; ++i) {
    prod.ingest(Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
  }
  prod.flush();
  // Workers must still be consuming (not parked): a live snapshot completes
  // and sees the whole stream.
  const TrendSnapshot live = eng.trend_snapshot();
  EXPECT_EQ(live.stats().epochs, 2u);
  EXPECT_EQ(live.current_length(), kN);
  eng.stop();
}

/// An engine that never rotated has no sealed windows: the query is one
/// live merge, with nothing served from (or merged into) the sealed cache,
/// and its current window spans every shard plus every drop.
TEST(EngineTest, UnrotatedQueryPaysNoSealedMerge) {
  EngineConfig cfg;
  cfg.workers = 3;
  cfg.producers = 1;
  cfg.ring_capacity = 64;
  cfg.batch = 16;
  cfg.overflow = OverflowPolicy::kDropTail;
  HhhEngine eng(cfg);
  HhhEngine::Producer& prod = eng.producer(0);
  Xoroshiro128 rng(41);
  for (int i = 0; i < 5000; ++i) {
    prod.ingest(Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
  }
  prod.flush();  // never started: the rings fill and the tails drop
  eng.start();
  eng.stop();

  const TrendSnapshot snap = eng.trend_snapshot();
  EXPECT_EQ(snap.sealed_windows(), 0u);
  EXPECT_EQ(snap.window_epochs(), 0u);
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.trend_sealed_merges, 0u);
  EXPECT_EQ(s.trend_cache_hits, 0u);
  ASSERT_GT(s.dropped, 0u);
  std::uint64_t shard_n = 0;
  for (std::uint32_t w = 0; w < eng.workers(); ++w) {
    shard_n += eng.shard(w).stream_length();
  }
  EXPECT_EQ(snap.current_length(), shard_n + s.dropped);
  EXPECT_EQ(snap.current_drops(), s.dropped);
  EXPECT_EQ(snap.current_length(), s.offered);
}

TEST(EngineTest, BlockingOverflowIsLosslessAndCounted) {
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.producers = 1;
  cfg.ring_capacity = 64;  // tiny: force backpressure
  cfg.batch = 32;
  cfg.overflow = OverflowPolicy::kBlock;
  HhhEngine eng(cfg);
  eng.start();
  HhhEngine::Producer& prod = eng.producer(0);
  Xoroshiro128 rng(13);
  constexpr std::uint64_t kN = 100000;
  for (std::uint64_t i = 0; i < kN; ++i) {
    prod.ingest(Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
  }
  prod.flush();
  eng.stop();
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.offered, kN);
  EXPECT_EQ(s.consumed, kN) << "kBlock must not lose records";
  EXPECT_EQ(s.dropped, 0u);
}

// ---------------------------------------------------- windowed engine ----

TEST(WindowedEngine, ManualRotationSeparatesWindows) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.producers = 1;
  cfg.monitor.algorithm = AlgorithmKind::kMst;  // deterministic counts
  HhhEngine eng(cfg);
  eng.start();
  HhhEngine::Producer& prod = eng.producer(0);
  const Key128 a = Key128::from_pair(ipv4(10, 0, 0, 1), ipv4(1, 1, 1, 1));
  const Key128 b = Key128::from_pair(ipv4(20, 0, 0, 2), ipv4(2, 2, 2, 2));

  // Window 0: traffic to A only; seal it on the shared boundary.
  for (int i = 0; i < 30000; ++i) prod.ingest(a);
  prod.flush();
  eng.rotate_epoch();
  EXPECT_EQ(eng.window_epochs(), 1u);

  // Window 1 (live): traffic to B only.
  for (int i = 0; i < 20000; ++i) prod.ingest(b);
  prod.flush();
  eng.stop();

  const TrendSnapshot snap = eng.trend_snapshot();
  ASSERT_NE(snap.sealed_windows(), 0u);
  EXPECT_EQ(snap.window_epochs(), 1u);
  EXPECT_EQ(snap.window_length(0), 30000u);
  EXPECT_EQ(snap.current_length(), 20000u);

  const Hierarchy& h = eng.hierarchy();
  const Prefix pa{h.bottom(), a};
  const Prefix pb{h.bottom(), b};
  EXPECT_TRUE(snap.window(0, 0.5).contains(pa));
  EXPECT_FALSE(snap.window(0, 0.5).contains(pb));
  EXPECT_TRUE(snap.current(0.5).contains(pb));
  EXPECT_FALSE(snap.current(0.5).contains(pa));

  // B is brand new this window: infinite growth. A must not be reported.
  bool found_b = false;
  for (const EmergingPrefix& e : snap.emerging(0.5, 2.0)) {
    EXPECT_FALSE(e.now.prefix == pa);
    if (e.now.prefix == pb) {
      found_b = true;
      EXPECT_DOUBLE_EQ(e.previous_share, 0.0);
      EXPECT_DOUBLE_EQ(e.share_now, 1.0);
      EXPECT_TRUE(std::isinf(e.growth()));
    }
  }
  EXPECT_TRUE(found_b);

  // The merged MST lattices recover the exact per-window counts.
  EXPECT_DOUBLE_EQ(snap.window_algorithm(0).estimate(pa), 30000.0);
  EXPECT_DOUBLE_EQ(snap.current_algorithm().estimate(pb), 20000.0);
}

TEST(WindowedEngine, NoPreviousWindowBeforeFirstRotation) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.producers = 1;
  HhhEngine eng(cfg);  // never started, never rotated
  const TrendSnapshot snap = eng.trend_snapshot();
  EXPECT_EQ(snap.sealed_windows(), 0u);
  EXPECT_EQ(snap.window_epochs(), 0u);
  EXPECT_TRUE(snap.emerging(0.5, 2.0).empty()) << "no traffic, nothing emerges";
}

// ------------------------------------------- K-deep trend snapshots ----

TEST(TrendEngine, HistoryDepthValidation) {
  EngineConfig cfg;
  cfg.history_depth = 0;
  EXPECT_THROW(HhhEngine{cfg}, std::invalid_argument);
  cfg.history_depth = 1;
  HhhEngine eng(cfg);
  EXPECT_EQ(eng.config().history_depth, 1u);
}

TEST(TrendEngine, TrendBeforeAnyRotationIsLiveOnly) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.producers = 1;
  cfg.history_depth = 4;
  HhhEngine eng(cfg);  // never started, never rotated
  const TrendSnapshot snap = eng.trend_snapshot();
  EXPECT_EQ(snap.sealed_windows(), 0u);
  EXPECT_EQ(snap.window_epochs(), 0u);
  const Prefix root{eng.hierarchy().top(), Key128{}};
  EXPECT_EQ(snap.trend(root).size(), 1u);
  EXPECT_TRUE(snap.emerging(0.5, 2.0).empty());
  EXPECT_TRUE(snap.emerging_sustained(0.5, 2.0, 2).empty());
}

TEST(TrendEngine, IndexAlignedMultiShardTrendMerges) {
  // Three shards, depth 3, deterministic MST: every per-epoch share below
  // is exact. Keys hash to different shards, so each sealed epoch's
  // network-wide lattice only reconstructs correctly if every shard
  // contributes its ring slot of the SAME age (index alignment); mixing
  // ages would bleed mass across epochs and break the exact counts.
  EngineConfig cfg;
  cfg.workers = 3;
  cfg.producers = 1;
  cfg.history_depth = 3;
  cfg.monitor.algorithm = AlgorithmKind::kMst;
  HhhEngine eng(cfg);
  eng.start();
  HhhEngine::Producer& prod = eng.producer(0);
  const Key128 a = Key128::from_pair(ipv4(10, 0, 0, 1), ipv4(1, 1, 1, 1));
  const Key128 b = Key128::from_pair(ipv4(20, 0, 0, 2), ipv4(2, 2, 2, 2));
  const Key128 c = Key128::from_pair(ipv4(30, 0, 0, 3), ipv4(3, 3, 3, 3));

  // Epoch 1: A=12000 B=6000. Epoch 2: B=9000. Epoch 3: A=3000 C=3000.
  // Live: A=8000.
  for (int i = 0; i < 12000; ++i) prod.ingest(a);
  for (int i = 0; i < 6000; ++i) prod.ingest(b);
  prod.flush();
  eng.rotate_epoch();
  for (int i = 0; i < 9000; ++i) prod.ingest(b);
  prod.flush();
  eng.rotate_epoch();
  for (int i = 0; i < 3000; ++i) prod.ingest(a);
  for (int i = 0; i < 3000; ++i) prod.ingest(c);
  prod.flush();
  eng.rotate_epoch();
  for (int i = 0; i < 8000; ++i) prod.ingest(a);
  prod.flush();
  eng.stop();

  const TrendSnapshot snap = eng.trend_snapshot();
  ASSERT_EQ(snap.sealed_windows(), 3u);
  EXPECT_EQ(snap.window_epochs(), 3u);
  // Ages are newest-first; trend() is oldest-first with live last.
  EXPECT_EQ(snap.window_length(2), 18000u);
  EXPECT_EQ(snap.window_length(1), 9000u);
  EXPECT_EQ(snap.window_length(0), 6000u);
  EXPECT_EQ(snap.current_length(), 8000u);

  const Hierarchy& h = eng.hierarchy();
  const Prefix pa{h.bottom(), a};
  const Prefix pb{h.bottom(), b};
  const auto ta = snap.trend(pa);
  ASSERT_EQ(ta.size(), 4u);
  EXPECT_DOUBLE_EQ(ta[0].share, 12000.0 / 18000.0);
  EXPECT_DOUBLE_EQ(ta[0].estimate, 12000.0);
  EXPECT_DOUBLE_EQ(ta[1].share, 0.0);
  EXPECT_DOUBLE_EQ(ta[2].share, 0.5);
  EXPECT_DOUBLE_EQ(ta[3].share, 1.0);
  const auto tb = snap.trend(pb);
  EXPECT_DOUBLE_EQ(tb[0].share, 6000.0 / 18000.0);
  EXPECT_DOUBLE_EQ(tb[1].share, 1.0);
  EXPECT_DOUBLE_EQ(tb[2].share, 0.0);
  EXPECT_DOUBLE_EQ(tb[3].share, 0.0);

  // The per-age window sets answer like a dedicated two-window snapshot.
  EXPECT_TRUE(snap.window(0, 0.4).contains(pa));
  EXPECT_TRUE(snap.window(1, 0.9).contains(pb));
  EXPECT_FALSE(snap.window(1, 0.1).contains(pa));

  // Cross-check against per-shard ring slots: summing every shard's age-i
  // lattice length must equal the merged window length (index alignment).
  for (std::size_t age = 0; age < 3; ++age) {
    std::uint64_t sum = 0;
    for (std::uint32_t w = 0; w < eng.workers(); ++w) {
      sum += eng.shard_sealed(w, age).stream_length();
    }
    EXPECT_EQ(sum, snap.window_length(age)) << "age " << age;
  }
}

TEST(TrendEngine, RingEvictsBeyondDepth) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.producers = 1;
  cfg.history_depth = 2;
  cfg.monitor.algorithm = AlgorithmKind::kMst;
  HhhEngine eng(cfg);
  eng.start();
  HhhEngine::Producer& prod = eng.producer(0);
  for (int e = 0; e < 4; ++e) {
    for (int i = 0; i < 1000 * (e + 1); ++i) {
      prod.ingest(Key128::from_pair(ipv4(10, 0, 0, std::uint8_t(e)),
                                    ipv4(1, 1, 1, 1)));
    }
    prod.flush();
    eng.rotate_epoch();
  }
  eng.stop();
  const TrendSnapshot snap = eng.trend_snapshot();
  EXPECT_EQ(snap.window_epochs(), 4u);
  ASSERT_EQ(snap.sealed_windows(), 2u);  // depth caps retention
  EXPECT_EQ(snap.window_length(0), 4000u);  // newest sealed epoch
  EXPECT_EQ(snap.window_length(1), 3000u);
  EXPECT_EQ(snap.current_length(), 0u);
}

TEST(TrendEngine, DropsAttributedPerWindowAge) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.producers = 1;
  cfg.ring_capacity = 16;
  cfg.batch = 8;
  cfg.overflow = OverflowPolicy::kDropTail;
  cfg.history_depth = 3;
  HhhEngine eng(cfg);  // never started: rings fill, tails drop
  HhhEngine::Producer& prod = eng.producer(0);
  Xoroshiro128 rng(23);
  auto blast = [&](int n) {
    for (int i = 0; i < n; ++i) {
      prod.ingest(Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
    }
    prod.flush();
  };
  blast(5000);
  const std::uint64_t drops_w0 = eng.stats().dropped;
  ASSERT_GT(drops_w0, 0u);
  eng.rotate_epoch();
  blast(3000);
  const std::uint64_t drops_w1 = eng.stats().dropped - drops_w0;
  eng.rotate_epoch();
  blast(2000);

  const TrendSnapshot snap = eng.trend_snapshot();
  ASSERT_EQ(snap.sealed_windows(), 2u);
  EXPECT_EQ(snap.window_drops(1), drops_w0);
  EXPECT_EQ(snap.window_drops(0), drops_w1);
  EXPECT_EQ(snap.current_drops(), snap.stats().dropped - drops_w0 - drops_w1);
  // Nothing consumed yet: every window's N is exactly its own drops.
  EXPECT_EQ(snap.window_length(1), drops_w0);
  EXPECT_EQ(snap.window_length(0), drops_w1);
  EXPECT_EQ(snap.current_length(), snap.current_drops());
  // A second query must agree with the first on the newest age.
  const TrendSnapshot two = eng.trend_snapshot();
  EXPECT_EQ(two.window_drops(0), snap.window_drops(0));
  EXPECT_EQ(two.window_length(0), snap.window_length(0));
}

TEST(TrendEngine, SustainedRampAlarmsAtEngineScale) {
  // Two quiet epochs, then a ramp that persists for two more epochs into
  // the live window: emerging_sustained on the engine's trend snapshot
  // must flag the attack aggregate, mirroring the monitor semantics.
  EngineConfig cfg;
  cfg.workers = 4;
  cfg.producers = 1;
  cfg.history_depth = 4;
  cfg.monitor.algorithm = AlgorithmKind::kMst;
  HhhEngine eng(cfg);
  eng.start();
  HhhEngine::Producer& prod = eng.producer(0);
  Xoroshiro128 rng(7);
  const Ipv4 attack_net = ipv4(66, 66, 0, 0);
  const Ipv4 victim = ipv4(9, 9, 9, 9);
  auto run_epoch = [&](int attack_pct, int n) {
    for (int i = 0; i < n; ++i) {
      if (static_cast<int>(rng.bounded(100)) < attack_pct) {
        prod.ingest(Key128::from_pair(attack_net | rng.bounded(1 << 16), victim));
      } else {
        prod.ingest(Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
      }
    }
    prod.flush();
    eng.rotate_epoch();
  };
  run_epoch(2, 20000);
  run_epoch(2, 20000);
  run_epoch(40, 20000);
  run_epoch(45, 20000);
  for (int i = 0; i < 10000; ++i) {
    if (static_cast<int>(rng.bounded(100)) < 50) {
      prod.ingest(Key128::from_pair(attack_net | rng.bounded(1 << 16), victim));
    } else {
      prod.ingest(Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
    }
  }
  prod.flush();
  eng.stop();

  const TrendSnapshot snap = eng.trend_snapshot();
  ASSERT_EQ(snap.sealed_windows(), 4u);
  const Hierarchy& h = eng.hierarchy();
  const Prefix attack_bottom{h.bottom(),
                             Key128::from_pair(attack_net | 0x0102u, victim)};
  bool found = false;
  for (const SustainedPrefix& s : snap.emerging_sustained(0.2, 3.0, 3)) {
    if (h.generalizes(s.now.prefix, attack_bottom) && s.share_now > 0.3) {
      found = true;
      EXPECT_GE(s.min_run_share, 3.0 * s.baseline_share);
    }
  }
  EXPECT_TRUE(found) << "sustained ramp not flagged";
}

namespace golden {

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  h ^= static_cast<unsigned char>('\n');
  h *= 1099511628211ULL;
  return h;
}

std::uint64_t digest_set(const Hierarchy& h, const HhhSet& s) {
  std::vector<std::string> lines;
  for (const HhhCandidate& c : s) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s f_est=%.6f f_lo=%.6f f_hi=%.6f c_hat=%.6f",
                  h.format(c.prefix).c_str(), c.f_est, c.f_lo, c.f_hi, c.c_hat);
    lines.emplace_back(buf);
  }
  std::sort(lines.begin(), lines.end());
  std::uint64_t d = 14695981039346656037ULL;
  for (const std::string& l : lines) d = fnv1a(d, l);
  return d;
}

std::uint64_t digest_emerging(const Hierarchy& h,
                              const std::vector<EmergingPrefix>& es) {
  std::vector<std::string> lines;
  for (const EmergingPrefix& e : es) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s prev=%.9f now=%.9f",
                  h.format(e.now.prefix).c_str(), e.previous_share, e.share_now);
    lines.emplace_back(buf);
  }
  std::sort(lines.begin(), lines.end());
  std::uint64_t d = 14695981039346656037ULL;
  for (const std::string& l : lines) d = fnv1a(d, l);
  return d;
}

}  // namespace golden

TEST(TrendEngine, HistoryDepthOneReproducesEpochPairGolden) {
  // Golden digests recorded from the pre-WindowRing EpochPair engine
  // (PR 3) on this fixed-seed scenario: the default depth-1 ring must
  // reproduce the two-window snapshot byte for byte (same shard lattice
  // salts, same rotation behavior, same drop folding).
  EngineConfig ecfg;
  ecfg.monitor.hierarchy = HierarchyKind::kIpv4TwoDimBytes;
  ecfg.monitor.algorithm = AlgorithmKind::kRhhh;
  ecfg.monitor.eps = 0.1;
  ecfg.monitor.delta = 0.1;
  ecfg.monitor.seed = 11;
  ecfg.workers = 3;
  ecfg.producers = 1;
  HhhEngine eng(ecfg);
  eng.start();
  Xoroshiro128 erng(123);
  HhhEngine::Producer& prod = eng.producer(0);
  for (int i = 0; i < 30000; ++i) {
    if (erng.bounded(10) < 3) {
      prod.ingest(Key128::from_pair(ipv4(20, 0, 0, 2), ipv4(2, 2, 2, 2)));
    } else {
      prod.ingest(Key128::from_pair(static_cast<std::uint32_t>(erng()),
                                    static_cast<std::uint32_t>(erng())));
    }
  }
  prod.flush();
  eng.stop();
  eng.rotate_epoch();
  eng.start();
  for (int i = 0; i < 10000; ++i) {
    if (erng.bounded(10) < 5) {
      prod.ingest(Key128::from_pair(ipv4(30, 0, 0, 3), ipv4(3, 3, 3, 3)));
    } else {
      prod.ingest(Key128::from_pair(static_cast<std::uint32_t>(erng()),
                                    static_cast<std::uint32_t>(erng())));
    }
  }
  prod.flush();
  eng.stop();
  const TrendSnapshot snap = eng.trend_snapshot();
  ASSERT_EQ(snap.window_epochs(), 1u);
  ASSERT_EQ(snap.sealed_windows(), 1u);
  ASSERT_EQ(snap.current_length(), 10000u);
  ASSERT_EQ(snap.window_length(0), 30000u);
  const Hierarchy& h = eng.hierarchy();
  EXPECT_EQ(golden::digest_set(h, snap.current(0.2)), 0xeb2d4bc442596af9ULL);
  EXPECT_EQ(golden::digest_set(h, snap.window(0, 0.2)), 0x63988573466a14bdULL);
  EXPECT_EQ(golden::digest_emerging(h, snap.emerging(0.2, 2.0)),
            0x4d1e9ccdc44b0d45ULL);
}

/// Acceptance criterion: a planted mid-stream burst must be flagged by
/// emerging() on a >= 4-worker engine, end to end through producers, rings,
/// shard rotation and the two-window merge -- with fixed seeds throughout.
TEST(WindowedEngine, DetectsPlantedBurstEndToEnd) {
  EngineConfig cfg;
  cfg.workers = 4;
  cfg.producers = 2;
  cfg.monitor.eps = 0.05;
  cfg.monitor.delta = 0.05;
  cfg.monitor.seed = 42;
  HhhEngine eng(cfg);
  const Hierarchy& h = eng.hierarchy();
  eng.start();

  const Ipv4 attack_net = ipv4(66, 66, 0, 0);
  const Ipv4 victim = ipv4(9, 9, 9, 9);
  auto ingest_phase = [&](double attack_share, std::uint64_t per_producer) {
    std::vector<std::thread> threads;
    for (std::uint32_t p = 0; p < 2; ++p) {
      threads.emplace_back([&, p] {
        HhhEngine::Producer& prod = eng.producer(p);
        TraceGenerator gen(trace_preset(p == 0 ? "chicago16" : "sanjose14"));
        Xoroshiro128 rng(777 + p);
        for (std::uint64_t i = 0; i < per_producer; ++i) {
          if (rng.uniform01() < attack_share) {
            prod.ingest(Key128::from_pair(attack_net | rng.bounded(1 << 16), victim));
          } else {
            prod.ingest(h.key_of(gen.next()));
          }
        }
        prod.flush();
      });
    }
    for (std::thread& t : threads) t.join();
  };

  ingest_phase(0.0, 60000);  // quiet window
  eng.rotate_epoch();
  ingest_phase(0.30, 40000);  // the burst: ~30% of the live window
  eng.stop();

  const TrendSnapshot snap = eng.trend_snapshot();
  ASSERT_NE(snap.sealed_windows(), 0u);
  EXPECT_EQ(snap.window_length(0), 120000u);
  EXPECT_EQ(snap.current_length(), 80000u);
  EXPECT_EQ(snap.stats().dropped, 0u);

  // Some aggregate generalizing the attack traffic must emerge with a big
  // share and >= 3x growth; nothing in the quiet background should.
  const Prefix attack_bottom{h.bottom(),
                             Key128::from_pair(attack_net | 0x0102u, victim)};
  bool detected = false;
  for (const EmergingPrefix& e : snap.emerging(0.1, 3.0)) {
    if (e.share_now > 0.15 && e.growth() >= 3.0 &&
        h.generalizes(e.now.prefix, attack_bottom)) {
      detected = true;
    }
  }
  EXPECT_TRUE(detected) << "planted burst not flagged by emerging()";
}

TEST(WindowedEngine, DropsAttributedToTheirWindow) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.producers = 1;
  cfg.ring_capacity = 16;
  cfg.batch = 8;
  cfg.overflow = OverflowPolicy::kDropTail;
  HhhEngine eng(cfg);  // never started: rings fill, tails drop
  HhhEngine::Producer& prod = eng.producer(0);
  Xoroshiro128 rng(23);
  for (int i = 0; i < 5000; ++i) {
    prod.ingest(Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
  }
  prod.flush();
  const std::uint64_t drops_window0 = eng.stats().dropped;
  ASSERT_GT(drops_window0, 0u);

  eng.rotate_epoch();  // seal window 0 (and its drops) pre-start

  // Window 1: the rings are still full, so everything new is dropped too.
  for (int i = 0; i < 3000; ++i) {
    prod.ingest(Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
  }
  prod.flush();

  const TrendSnapshot snap = eng.trend_snapshot();
  ASSERT_NE(snap.sealed_windows(), 0u);
  EXPECT_EQ(snap.window_drops(0), drops_window0);
  EXPECT_EQ(snap.current_drops(), snap.stats().dropped - drops_window0);
  // Nothing was consumed yet: each window's N is exactly its drops.
  EXPECT_EQ(snap.window_length(0), drops_window0);
  EXPECT_EQ(snap.current_length(), snap.current_drops());

  // Draining the rings books the backlog into the *current* window.
  eng.start();
  eng.stop();
  const TrendSnapshot after = eng.trend_snapshot();
  const EngineStats& s = after.stats();
  EXPECT_EQ(s.consumed + s.dropped, 8000u);
  EXPECT_EQ(after.current_length(), s.consumed + after.current_drops());
  ASSERT_NE(after.sealed_windows(), 0u);
  EXPECT_EQ(after.window_length(0), drops_window0);
}

TEST(WindowedEngine, PacketClockRotatesAutomatically) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.producers = 1;
  cfg.epoch_packets = 10000;
  HhhEngine eng(cfg);
  EXPECT_TRUE(eng.windowed());
  eng.start();
  HhhEngine::Producer& prod = eng.producer(0);
  Xoroshiro128 rng(29);
  for (int i = 0; i < 100000; ++i) {
    prod.ingest(Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
  }
  prod.flush();
  // The producer posted ten cuts; give the workers (generous) wall time to
  // rotate at the first.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (eng.window_epochs() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  eng.stop();
  const std::uint64_t rotations = eng.window_epochs();
  EXPECT_GE(rotations, 1u);
  EXPECT_EQ(rotations, 10u) << "one producer: a cut every epoch_packets records";
  const TrendSnapshot snap = eng.trend_snapshot();
  EXPECT_NE(snap.sealed_windows(), 0u);
  EXPECT_EQ(snap.stats().consumed, 100000u);
  EXPECT_EQ(snap.stats().window_epochs, rotations);
}

// The packet budget meters PUSHED records only (the EngineConfig
// contract): every pushed record is consumed, while drop-tail drops fold
// into the window's N but never spend the budget. Saturate a tiny ring
// while the engine is stopped -- nearly everything drops, almost nothing is
// pushed -- then run briefly. A pushed+dropped basis would see ~5 budgets
// spent and rotate; the pushed basis owes zero rotations.
TEST(WindowedEngine, PacketBudgetMetersConsumedOnly) {
  constexpr std::uint64_t kEpoch = 10'000;
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.producers = 1;
  cfg.ring_capacity = 64;
  cfg.batch = 16;
  cfg.overflow = OverflowPolicy::kDropTail;
  cfg.epoch_packets = kEpoch;
  HhhEngine eng(cfg);

  // Phase 1: flood the stopped engine. The ring holds 64 records; the rest
  // is counted drop-tail loss attributed to the live window.
  HhhEngine::Producer& prod = eng.producer(0);
  Xoroshiro128 rng(31);
  for (std::uint64_t i = 0; i < 5 * kEpoch; ++i) {
    prod.ingest(Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
  }
  prod.flush();
  ASSERT_GT(eng.stats().dropped, 4 * kEpoch) << "ring did not saturate";

  // Phase 2: run long enough for the worker to drain the 64-record
  // backlog. Consumed stays far below one budget, so no window may close.
  eng.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  eng.stop();

  const EngineStats s = eng.stats();
  EXPECT_LT(s.consumed, kEpoch);
  EXPECT_GT(s.dropped, 4 * kEpoch);
  EXPECT_EQ(s.window_epochs, 0u)
      << "drops spent the packet budget: basis is not pushed-only";

  // Phase 3: live traffic through the same saturated ring. Whatever drops
  // along the way, rotations may never outpace consumed records.
  eng.start();
  for (std::uint64_t i = 0; i < 3 * kEpoch; ++i) {
    prod.ingest(Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
  }
  prod.flush();
  eng.stop();
  const EngineStats s2 = eng.stats();
  EXPECT_GE(s2.consumed, kEpoch * s2.window_epochs);
  EXPECT_EQ(s2.consumed + s2.dropped, s2.offered);
}

// A spent budget must still rotate when no traffic follows: the push that
// spends it posts the cut, and the worker rotates once it has popped up to
// it, whether that happens in a regular pass or in a query's boundary
// drain. Each round pushes a little more than one budget into a large ring
// that the worker pops 16 records at a time while a poller keeps quiescing
// it with trend_snapshot(), so much of the backlog (often the cut) goes
// through boundary drains. Then all traffic and queries stop, and the one
// rotation owed must still arrive.
TEST(WindowedEngine, SpentBudgetRotatesWithNoFurtherTraffic) {
  constexpr std::uint64_t kEpoch = 4'096;
  constexpr std::uint64_t kPackets = kEpoch + kEpoch / 16;
  const auto wait_for = [](const auto& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return done();
  };
  for (int round = 0; round < 8; ++round) {
    EngineConfig cfg;
    cfg.workers = 1;
    cfg.producers = 1;
    cfg.batch = 16;
    cfg.epoch_packets = kEpoch;
    HhhEngine eng(cfg);
    eng.start();
    std::atomic<bool> quit{false};
    std::thread poller([&] {
      // order: relaxed -- plain stop flag; the join is the edge.
      while (!quit.load(std::memory_order_relaxed)) (void)eng.trend_snapshot();
    });
    HhhEngine::Producer& prod = eng.producer(0);
    Xoroshiro128 rng(700 + static_cast<std::uint64_t>(round));
    for (std::uint64_t i = 0; i < kPackets; ++i) {
      prod.ingest(Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
    }
    prod.flush();
    ASSERT_TRUE(wait_for([&] { return eng.stats().consumed == kPackets; }))
        << "round " << round;
    // order: relaxed -- see the poller.
    quit.store(true, std::memory_order_relaxed);
    poller.join();
    // No traffic and no queries from here on: only the worker rotates.
    EXPECT_TRUE(wait_for([&] { return eng.window_epochs() >= 1; }))
        << "round " << round << ": spent budget never rotated";
    eng.stop();
    const EngineStats s = eng.stats();
    EXPECT_EQ(s.window_epochs, 1u) << "round " << round;
    EXPECT_EQ(s.budget_rotations, 1u) << "round " << round;
  }
}

// Byte-identity oracle for cuts. With one producer and lossless rings a
// budget cut sits exactly epoch_packets records after the one before it in
// the producer's push order, so each shard's windows are its key-hash
// routed substream split wherever that order crosses a multiple of
// epoch_packets. Replaying each substream into a WindowRing built with the
// engine's slot salts must reproduce every live and sealed shard lattice
// byte for byte: rosters, N and updates. The producer batches per worker,
// so push order differs from ingest order; the replay batches the same
// way. The epoch is no multiple of the batch, so cuts fall mid-batch.
//
// Queries taken while the producer runs are pinned the same way: a
// snapshot's frozen per_ring_popped is its mark, so replaying each
// substream up to the mark (rotating at the snapshot's window_epochs()
// cuts) and merging the replayed live shards in worker order, seeded like
// the query, must give its current window byte for byte.
TEST(WindowedEngine, CutsReproduceReplayedShardRingsByteForByte) {
  constexpr std::uint64_t kEpoch = 1'000;
  constexpr std::size_t kRecords = 7'500;
  for (const std::uint32_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "W=" << workers);
    EngineConfig cfg;
    cfg.workers = workers;
    cfg.producers = 1;
    cfg.ring_capacity = 256;  // small: kBlock backpressure splits pushes too
    cfg.batch = 48;
    cfg.overflow = OverflowPolicy::kBlock;
    cfg.epoch_packets = kEpoch;
    cfg.history_depth = 3;
    cfg.monitor.eps = 0.02;
    cfg.monitor.seed = 77;
    HhhEngine eng(cfg);
    Xoroshiro128 rng(5);
    std::vector<Key128> keys;
    for (std::size_t i = 0; i < kRecords; ++i) {
      keys.push_back(Key128::from_pair(static_cast<std::uint32_t>(rng.bounded(300)),
                                       static_cast<std::uint32_t>(rng())));
    }
    eng.start();
    // The poller queries back to back while the producer pushes; at three
    // points the producer waits for one more query, so at least three land
    // mid-stream.
    constexpr std::size_t kMaxPolls = 200;
    std::atomic<bool> quit{false};
    std::atomic<std::size_t> polls{0};
    std::vector<TrendSnapshot> polled;
    std::thread poller([&] {
      // order: acquire -- pairs with the release store below.
      while (!quit.load(std::memory_order_acquire) && polled.size() < kMaxPolls) {
        polled.push_back(eng.trend_snapshot());
        // order: release -- the producer only counts polls; the join
        // publishes the snapshots.
        polls.store(polled.size(), std::memory_order_release);
      }
    });
    HhhEngine::Producer& prod = eng.producer(0);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      prod.ingest(keys[i]);
      if ((i + 1) % (kRecords / 4) == 0 && i + 1 < kRecords) {
        // order: acquire -- a count only; see the poller.
        const std::size_t seen = polls.load(std::memory_order_acquire);
        while (polls.load(std::memory_order_acquire) == seen && seen < kMaxPolls) {
          std::this_thread::yield();
        }
      }
    }
    prod.flush();
    // order: release -- the poller's exit flag.
    quit.store(true, std::memory_order_release);
    poller.join();
    eng.stop();
    ASSERT_EQ(eng.window_epochs(), kRecords / kEpoch);
    ASSERT_GE(polled.size(), 3u);

    // The producer's push order: per-worker batches, flushed when full and
    // by flush() in worker order.
    const auto [mode, lp] = lattice_config_of(eng.hierarchy(), cfg.monitor);
    ShardRouter router(cfg.policy, workers, lp.seed, 0);
    std::vector<std::vector<Key128>> buf(workers);
    std::vector<std::pair<std::uint32_t, Key128>> pushed;
    const auto flush = [&](std::uint32_t w) {
      for (const Key128& k : buf[w]) pushed.emplace_back(w, k);
      buf[w].clear();
    };
    for (const Key128& k : keys) {
      const std::uint32_t w = router.route(k);
      buf[w].push_back(k);
      if (buf[w].size() >= cfg.batch) flush(w);
    }
    for (std::uint32_t w = 0; w < workers; ++w) flush(w);

    std::vector<WindowRing<RhhhSpaceSaving>> rings;
    for (std::uint32_t w = 0; w < workers; ++w) {
      rings.emplace_back(cfg.history_depth, [&, w](std::size_t slot) {
        LatticeParams p = lp;
        p.seed = mix64(lp.seed ^ (0x5eed0000ULL + 0x2000ULL * slot + w));
        return std::make_unique<RhhhSpaceSaving>(eng.hierarchy(), mode, p);
      });
    }
    for (std::size_t i = 0; i < pushed.size(); ++i) {
      rings[pushed[i].first].live().update(pushed[i].second);
      if ((i + 1) % kEpoch == 0) {
        for (auto& r : rings) r.rotate();
      }
    }

    const auto bytes = [&](const RhhhSpaceSaving& lattice) {
      return store::encode_window(store::WindowMeta{}, cfg.monitor.hierarchy, lattice);
    };
    for (std::uint32_t w = 0; w < workers; ++w) {
      EXPECT_EQ(bytes(eng.shard(w)), bytes(rings[w].live())) << "worker " << w;
      ASSERT_EQ(eng.shard_sealed_windows(), rings[w].sealed_count());
      for (std::size_t age = 0; age < rings[w].sealed_count(); ++age) {
        EXPECT_EQ(bytes(eng.shard_sealed(w, age)), bytes(rings[w].sealed(age)))
            << "worker " << w << " age " << age;
      }
    }

    for (const TrendSnapshot& tr : polled) {
      const std::vector<std::uint64_t>& mark = tr.stats().per_ring_popped;  // P = 1
      ASSERT_EQ(mark.size(), workers);
      std::vector<WindowRing<RhhhSpaceSaving>> at_mark;
      for (std::uint32_t w = 0; w < workers; ++w) {
        at_mark.emplace_back(cfg.history_depth, [&, w](std::size_t slot) {
          LatticeParams p = lp;
          p.seed = mix64(lp.seed ^ (0x5eed0000ULL + 0x2000ULL * slot + w));
          return std::make_unique<RhhhSpaceSaving>(eng.hierarchy(), mode, p);
        });
      }
      std::vector<std::uint64_t> fed(workers, 0);
      std::uint64_t cuts = 0;
      for (std::size_t i = 0; i < pushed.size(); ++i) {
        const std::uint32_t w = pushed[i].first;
        if (fed[w] < mark[w]) {
          at_mark[w].live().update(pushed[i].second);
          ++fed[w];
        }
        if ((i + 1) % kEpoch == 0 && cuts < tr.window_epochs()) {
          for (auto& r : at_mark) r.rotate();
          ++cuts;
        }
      }
      ASSERT_EQ(fed, mark) << "query " << tr.stats().epochs;
      LatticeParams qp = lp;
      qp.seed = mix64(lp.seed ^ (0x6e7a9000ULL ^ tr.stats().epochs));
      RhhhSpaceSaving merged(eng.hierarchy(), mode, qp);
      for (const auto& r : at_mark) merged.merge(r.live());
      EXPECT_EQ(bytes(tr.current_algorithm()), bytes(merged))
          << "query " << tr.stats().epochs << " at " << tr.window_epochs() << " cuts";
    }
  }
}

// ------------------------------------------------------------- stress ----

/// The ASan/UBSan CI tier runs this: 4 producer threads x 4 workers under
/// concurrent mid-stream snapshots. Checks lossless accounting end to end.
TEST(EngineStress, FourProducersFourWorkersWithConcurrentSnapshots) {
  EngineConfig cfg;
  cfg.workers = 4;
  cfg.producers = 4;
  cfg.ring_capacity = 1 << 12;
  cfg.monitor.eps = 0.05;
  cfg.monitor.delta = 0.05;
  HhhEngine eng(cfg);
  eng.start();

  const Key128 hot = Key128::from_pair(ipv4(10, 1, 2, 3), ipv4(99, 5, 6, 7));
  constexpr std::uint64_t kPerProducer = 50000;
  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < 4; ++p) {
    threads.emplace_back([&, p] {
      HhhEngine::Producer& prod = eng.producer(p);
      Xoroshiro128 rng(1000 + p);
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        if (rng.bounded(10) < 3) {
          prod.ingest(hot);
        } else {
          prod.ingest(
              Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
        }
      }
      prod.flush();
    });
  }
  // Two snapshots taken while producers are firing: must quiesce and resume
  // without losing records or deadlocking.
  for (int i = 0; i < 2; ++i) {
    const TrendSnapshot mid = eng.trend_snapshot();
    EXPECT_EQ(mid.stats().epochs, static_cast<std::uint64_t>(i + 1));
  }
  for (std::thread& t : threads) t.join();
  eng.stop();

  const TrendSnapshot final_snap = eng.trend_snapshot();
  EXPECT_EQ(final_snap.current_length(), 4 * kPerProducer);
  const EngineStats& s = final_snap.stats();
  EXPECT_EQ(s.offered, 4 * kPerProducer);
  EXPECT_EQ(s.consumed, 4 * kPerProducer);
  EXPECT_EQ(s.dropped, 0u);
  EXPECT_EQ(s.epochs, 3u);

  bool found = false;
  const Prefix hot_prefix{eng.hierarchy().bottom(), hot};
  for (const HhhCandidate& c : final_snap.current(0.2)) {
    if (c.prefix == hot_prefix) found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace rhhh
