// Randomized conservation fuzz for the sharded engine: every iteration
// draws a topology (producers x workers x ring size x batch x router x
// overflow policy x algorithm x windowing mode) from a seeded RNG, hammers
// it from concurrent producer threads while a chaos thread interleaves
// queries and epoch rotations mid-stream, then asserts the
// conservation invariants the accounting promises:
//
//   * offered == pushed + dropped          (per engine, from per-ring counts)
//   * pushed == popped per ring            (after stop() drains everything)
//   * consumed == sum of per-ring pops == sum of per-worker counts
//   * merged N == sum of shard Ns + drops  (current and every sealed window)
//
// Registered under the `stress` ctest label: CI runs these under
// ASan/UBSan, where the interleavings are the point.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/monitor.hpp"
#include "engine/engine.hpp"
#include "net/ipv4.hpp"
#include "util/random.hpp"

namespace rhhh {
namespace {

struct FuzzPlan {
  EngineConfig cfg;
  std::uint64_t per_producer = 0;
  int chaos_ops = 0;  ///< mid-stream query/rotate calls
};

FuzzPlan draw_plan(std::uint64_t seed) {
  Xoroshiro128 rng(seed);
  FuzzPlan plan;
  EngineConfig& cfg = plan.cfg;
  cfg.workers = 1 + rng.bounded(4);
  cfg.producers = 1 + rng.bounded(3);
  const std::size_t caps[] = {64, 512, 4096};
  cfg.ring_capacity = caps[rng.bounded(3)];
  const std::size_t batches[] = {1, 7, 64};
  cfg.batch = batches[rng.bounded(3)];
  cfg.policy = rng.bounded(2) == 0 ? ShardPolicy::kKeyHash : ShardPolicy::kRoundRobin;
  cfg.overflow =
      rng.bounded(2) == 0 ? OverflowPolicy::kBlock : OverflowPolicy::kDropTail;
  const AlgorithmKind algs[] = {AlgorithmKind::kRhhh, AlgorithmKind::kTenRhhh,
                                AlgorithmKind::kMst};
  cfg.monitor.algorithm = algs[rng.bounded(3)];
  cfg.monitor.eps = 0.05;
  cfg.monitor.delta = 0.05;
  cfg.monitor.seed = seed;
  if (rng.bounded(2) == 0) cfg.epoch_packets = 20000;  // packet budget on
  cfg.history_depth = 1 + rng.bounded(4);  // K-deep window rings
  plan.per_producer = 20000 + rng.bounded(20000);
  plan.chaos_ops = 2 + static_cast<int>(rng.bounded(4));
  return plan;
}

class EngineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(EngineFuzz, ConservationHoldsUnderConcurrentChaos) {
  const auto seed = static_cast<std::uint64_t>(9000 + GetParam());
  const FuzzPlan plan = draw_plan(seed);
  SCOPED_TRACE(::testing::Message()
               << "seed=" << seed << " W=" << plan.cfg.workers
               << " M=" << plan.cfg.producers << " ring=" << plan.cfg.ring_capacity
               << " batch=" << plan.cfg.batch << " overflow="
               << to_string(plan.cfg.overflow) << " epoch_packets="
               << plan.cfg.epoch_packets << " n/producer=" << plan.per_producer);

  HhhEngine eng(plan.cfg);
  eng.start();

  const Key128 hot = Key128::from_pair(ipv4(10, 1, 2, 3), ipv4(99, 5, 6, 7));
  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < plan.cfg.producers; ++p) {
    threads.emplace_back([&, p] {
      HhhEngine::Producer& prod = eng.producer(p);
      Xoroshiro128 rng(seed * 31 + p);
      for (std::uint64_t i = 0; i < plan.per_producer; ++i) {
        if (rng.bounded(10) < 3) {
          prod.ingest(hot);
        } else {
          prod.ingest(Key128::from_pair(rng(), static_cast<std::uint32_t>(rng())));
        }
      }
      prod.flush();
    });
  }

  // Chaos: interleave every control operation with live producers.
  {
    Xoroshiro128 rng(seed ^ 0xc4a05u);
    for (int i = 0; i < plan.chaos_ops; ++i) {
      if (rng.bounded(4) < 3) {
        (void)eng.trend_snapshot();
      } else {
        eng.rotate_epoch();
      }
    }
  }
  for (std::thread& t : threads) t.join();
  eng.stop();

  const EngineStats s = eng.stats();
  const std::uint64_t offered_expect =
      std::uint64_t{plan.cfg.producers} * plan.per_producer;
  EXPECT_EQ(s.offered, offered_expect);

  // Per-ring conservation: everything offered was pushed or dropped, and
  // after the stop() drain every pushed record was popped.
  const std::size_t n_rings = std::size_t{plan.cfg.producers} * plan.cfg.workers;
  ASSERT_EQ(s.per_ring_pushed.size(), n_rings);
  ASSERT_EQ(s.per_ring_popped.size(), n_rings);
  ASSERT_EQ(s.per_ring_dropped.size(), n_rings);
  std::uint64_t pushed = 0, popped = 0, dropped = 0;
  for (std::size_t r = 0; r < n_rings; ++r) {
    EXPECT_EQ(s.per_ring_pushed[r], s.per_ring_popped[r]) << "ring " << r;
    pushed += s.per_ring_pushed[r];
    popped += s.per_ring_popped[r];
    dropped += s.per_ring_dropped[r];
  }
  EXPECT_EQ(pushed + dropped, s.offered);
  EXPECT_EQ(dropped, s.dropped);
  EXPECT_EQ(popped, s.consumed);
  EXPECT_EQ(s.consumed + s.dropped, s.offered);
  if (plan.cfg.overflow == OverflowPolicy::kBlock) {
    EXPECT_EQ(s.dropped, 0u) << "kBlock must be lossless";
  }
  std::uint64_t per_worker = 0;
  for (const std::uint64_t c : s.per_worker_consumed) per_worker += c;
  EXPECT_EQ(per_worker, s.consumed);

  // Merged stream lengths (engine quiescent now): every window spans its
  // shards' sub-streams plus exactly its own drops -- on an engine that
  // never rotated, the current window is the whole stream with all drops.
  // Per-age sealed lengths must equal the index-aligned sum of the shard
  // ring slots plus exactly that window's drops.
  std::uint64_t live_n = 0;
  for (std::uint32_t w = 0; w < eng.workers(); ++w) {
    live_n += eng.shard(w).stream_length();
  }
  const TrendSnapshot tr = eng.trend_snapshot();
  if (eng.window_epochs() == 0) {
    EXPECT_EQ(tr.current_length(), live_n + s.dropped);
  }
  EXPECT_EQ(tr.stats().window_epochs, eng.window_epochs());
  EXPECT_EQ(tr.sealed_windows(),
            std::min<std::uint64_t>(eng.window_epochs(), plan.cfg.history_depth));
  EXPECT_EQ(tr.current_length(), live_n + tr.current_drops());
  std::uint64_t retained_drops = tr.current_drops();
  for (std::size_t age = 0; age < tr.sealed_windows(); ++age) {
    std::uint64_t shard_sum = 0;
    for (std::uint32_t w = 0; w < eng.workers(); ++w) {
      shard_sum += eng.shard_sealed(w, age).stream_length();
    }
    EXPECT_EQ(tr.window_length(age), shard_sum + tr.window_drops(age))
        << "age " << age;
    retained_drops += tr.window_drops(age);
  }
  EXPECT_LE(retained_drops, s.dropped);
  if (eng.window_epochs() <= plan.cfg.history_depth) {
    EXPECT_EQ(retained_drops, s.dropped) << "no eviction: every drop retained";
  }

  // A repeated query on the quiescent engine answers identically and is
  // served the cached sealed merges.
  const TrendSnapshot again = eng.trend_snapshot();
  EXPECT_EQ(again.current_length(), tr.current_length());
  EXPECT_EQ(again.current_drops(), tr.current_drops());
  ASSERT_EQ(again.sealed_windows(), tr.sealed_windows());
  for (std::size_t age = 0; age < tr.sealed_windows(); ++age) {
    EXPECT_EQ(&again.window_algorithm(age), &tr.window_algorithm(age)) << "age " << age;
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, EngineFuzz, ::testing::Range(0, 12));

}  // namespace
}  // namespace rhhh
