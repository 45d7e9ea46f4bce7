// Micro-benchmarks (google-benchmark): the cost decomposition of a single
// RHHH update (Theorem 6.18's O(1) pieces -- bounded RNG draw, mask, one
// Space-Saving increment) against MST's O(H) loop and the trie update, per
// hierarchy. Complements Figure 5's end-to-end throughput numbers.
#include <benchmark/benchmark.h>

#include <vector>

#include "hh/space_saving.hpp"
#include "hhh/lattice_hhh.hpp"
#include "trace/trace_gen.hpp"
#include "trie_hhh.hpp"
#include "util/random.hpp"

namespace rhhh {
namespace {

const std::vector<Key128>& keys_2d() {
  static const std::vector<Key128> keys = [] {
    TraceGenerator gen(trace_preset("chicago16"));
    const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
    std::vector<Key128> out;
    out.reserve(1 << 18);
    for (int i = 0; i < (1 << 18); ++i) out.push_back(h.key_of(gen.next()));
    return out;
  }();
  return keys;
}

Hierarchy hierarchy_for(int h_size) {
  switch (h_size) {
    case 5: return Hierarchy::ipv4_1d(Granularity::kByte);
    case 25: return Hierarchy::ipv4_2d(Granularity::kByte);
    case 33: return Hierarchy::ipv4_1d(Granularity::kBit);
    default: return Hierarchy::ipv4_2d(Granularity::kByte);
  }
}

void BM_RngBoundedDraw(benchmark::State& state) {
  Xoroshiro128 rng(1);
  std::uint32_t sink = 0;
  for (auto _ : state) {
    sink += rng.bounded(250);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RngBoundedDraw);

void BM_MaskKey(benchmark::State& state) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  const auto& keys = keys_2d();
  std::size_t i = 0;
  Key128 sink{};
  for (auto _ : state) {
    sink = sink ^ h.mask_key(7, keys[i++ & (keys.size() - 1)]);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_MaskKey);

void BM_SpaceSavingIncrement(benchmark::State& state) {
  SpaceSaving<Key128> ss(static_cast<std::size_t>(state.range(0)));
  const auto& keys = keys_2d();
  std::size_t i = 0;
  for (auto _ : state) {
    ss.increment(keys[i++ & (keys.size() - 1)]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SpaceSavingIncrement)->Arg(64)->Arg(1024)->Arg(16384);

template <LatticeMode Mode>
void BM_LatticeUpdate(benchmark::State& state) {
  const Hierarchy h = hierarchy_for(static_cast<int>(state.range(0)));
  LatticeParams lp;
  lp.eps = 0.001;
  lp.delta = 0.001;
  if (Mode == LatticeMode::kRhhh && state.range(1) > 1) {
    lp.V = static_cast<std::uint32_t>(state.range(1)) *
           static_cast<std::uint32_t>(h.size());
  }
  RhhhSpaceSaving alg(h, Mode, lp);
  const auto& keys = keys_2d();
  std::size_t i = 0;
  for (auto _ : state) {
    alg.update(keys[i++ & (keys.size() - 1)]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("H=" + std::to_string(h.size()));
}
BENCHMARK_TEMPLATE(BM_LatticeUpdate, LatticeMode::kRhhh)
    ->Args({5, 1})
    ->Args({25, 1})
    ->Args({33, 1})
    ->Args({25, 10});
BENCHMARK_TEMPLATE(BM_LatticeUpdate, LatticeMode::kMst)
    ->Args({5, 1})
    ->Args({25, 1})
    ->Args({33, 1});

/// The engine hot path: whole batches through the staged update_batch
/// pipeline (block-RNG, survivor compaction, prefetched apply). Args are
/// {H, V-multiplier, batch size}; items processed counts packets, so
/// items/s is directly comparable to BM_LatticeUpdate.
template <LatticeMode Mode>
void BM_LatticeUpdateBatch(benchmark::State& state) {
  const Hierarchy h = hierarchy_for(static_cast<int>(state.range(0)));
  LatticeParams lp;
  lp.eps = 0.001;
  lp.delta = 0.001;
  if (Mode == LatticeMode::kRhhh && state.range(1) > 1) {
    lp.V = static_cast<std::uint32_t>(state.range(1)) *
           static_cast<std::uint32_t>(h.size());
  }
  RhhhSpaceSaving alg(h, Mode, lp);
  const auto& keys = keys_2d();
  const auto batch = static_cast<std::size_t>(state.range(2));
  std::size_t i = 0;
  for (auto _ : state) {
    if (i + batch > keys.size()) i = 0;
    alg.update_batch(keys.data() + i, batch);
    i += batch;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
  state.SetLabel("H=" + std::to_string(h.size()) +
                 " batch=" + std::to_string(batch));
}
BENCHMARK_TEMPLATE(BM_LatticeUpdateBatch, LatticeMode::kRhhh)
    ->Args({25, 1, 2048})
    ->Args({25, 10, 256})
    ->Args({25, 10, 2048})
    ->Args({33, 10, 2048});
BENCHMARK_TEMPLATE(BM_LatticeUpdateBatch, LatticeMode::kMst)->Args({25, 1, 2048});

void BM_TrieUpdate(benchmark::State& state) {
  const Hierarchy h = hierarchy_for(static_cast<int>(state.range(0)));
  TrieHhh alg(h, state.range(1) == 0 ? AncestryMode::kPartial : AncestryMode::kFull,
              0.001);
  const auto& keys = keys_2d();
  std::size_t i = 0;
  for (auto _ : state) {
    alg.update(keys[i++ & (keys.size() - 1)]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TrieUpdate)->Args({25, 0})->Args({25, 1})->Args({33, 0});

void BM_Output(benchmark::State& state) {
  const Hierarchy h = Hierarchy::ipv4_2d(Granularity::kByte);
  LatticeParams lp;
  lp.eps = 0.01;
  lp.delta = 0.001;
  RhhhSpaceSaving alg(h, LatticeMode::kRhhh, lp);
  const auto& keys = keys_2d();
  for (const Key128& k : keys) alg.update(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(alg.output(0.02));
  }
}
BENCHMARK(BM_Output);

}  // namespace
}  // namespace rhhh

BENCHMARK_MAIN();
