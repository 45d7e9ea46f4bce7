// ShardRouter: maps a packet key to one of W worker shards.
//
// Two policies:
//   kKeyHash    -- route by a strong hash of the fully-specified key, so a
//                  given flow always lands on the same shard. Each shard's
//                  Space-Saving lattice then sees every packet of the flows
//                  it owns, which keeps per-shard counts tight (this is the
//                  Confluo/Akumuli "shard by series" shape).
//   kRoundRobin -- spread packets evenly regardless of key; perfectly
//                  balanced load, but a flow's count spreads across shards
//                  and is only recovered at merge time.
//
// The router is a per-producer value type (the round-robin cursor is
// producer-local state; key-hash is stateless), so no synchronization is
// involved on the packet path.
#pragma once

#include <cstdint>
#include <string_view>

#include "util/key128.hpp"

namespace rhhh {

enum class ShardPolicy : std::uint8_t { kKeyHash, kRoundRobin };

[[nodiscard]] constexpr std::string_view to_string(ShardPolicy p) noexcept {
  switch (p) {
    case ShardPolicy::kKeyHash: return "key-hash";
    case ShardPolicy::kRoundRobin: return "round-robin";
  }
  return "?";
}

class ShardRouter {
 public:
  /// `salt` decorrelates the hash from the summaries' index hash; every router
  /// of one engine must share it so a key maps to the same shard everywhere.
  /// `rr_start` staggers the round-robin cursor (e.g. by producer id) so M
  /// producers do not all hit worker 0 in lockstep.
  explicit constexpr ShardRouter(ShardPolicy policy, std::uint32_t shards,
                                 std::uint64_t salt = 0,
                                 std::uint32_t rr_start = 0) noexcept
      : policy_(policy),
        shards_(shards == 0 ? 1 : shards),
        salt_(mix64(salt)),
        rr_(rr_start % shards_) {}

  [[nodiscard]] constexpr ShardPolicy policy() const noexcept { return policy_; }
  [[nodiscard]] constexpr std::uint32_t shards() const noexcept { return shards_; }

  /// Shard index in [0, shards()) for key `k`. Key-hash uses Lemire's
  /// multiply-shift on the top hash bits (no division); round-robin advances
  /// a cursor.
  [[nodiscard]] constexpr std::uint32_t route(const Key128& k) noexcept {
    if (policy_ == ShardPolicy::kRoundRobin) {
      const std::uint32_t s = rr_;
      rr_ = (rr_ + 1 == shards_) ? 0 : rr_ + 1;
      return s;
    }
    const std::uint64_t h = Key128Hash{}(k) ^ salt_;
    return static_cast<std::uint32_t>(((h >> 32) * shards_) >> 32);
  }

 private:
  ShardPolicy policy_;
  std::uint32_t shards_;
  std::uint64_t salt_;
  std::uint32_t rr_;
};

}  // namespace rhhh
