// FlatHashMap: open-addressing hash map with robin-hood probing and
// backward-shift deletion.
//
// This is the lookup structure behind the tries, the ground-truth
// aggregation and the vswitch flow tables. It is specialized for the
// library's needs: trivially-copyable keys and values, power-of-two
// capacity, no iterator stability across mutation, and no exceptions on
// the lookup path.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/bits.hpp"
#include "util/key128.hpp"

namespace rhhh {

template <class K, class V, class Hash = KeyHash<K>>
class FlatHashMap {
  static_assert(std::is_trivially_copyable_v<K>);
  static_assert(std::is_trivially_copyable_v<V>);

  struct Slot {
    K key;
    V value;
    std::uint16_t dist;  // 0 = empty, otherwise probe distance + 1
  };

 public:
  explicit FlatHashMap(std::size_t initial_capacity = 16) {
    rehash(next_pow2(initial_capacity < 8 ? 8 : initial_capacity));
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  void clear() noexcept {
    for (auto& s : slots_) s.dist = 0;
    size_ = 0;
  }

  [[nodiscard]] V* find(const K& key) noexcept {
    const std::size_t m = mask();
    std::size_t i = Hash{}(key) & m;
    std::uint16_t d = 1;
    while (true) {
      Slot& s = slots_[i];
      if (s.dist == 0 || s.dist < d) return nullptr;
      if (s.dist == d && s.key == key) return &s.value;
      i = (i + 1) & m;
      ++d;
    }
  }
  [[nodiscard]] const V* find(const K& key) const noexcept {
    return const_cast<FlatHashMap*>(this)->find(key);
  }
  [[nodiscard]] bool contains(const K& key) const noexcept {
    return find(key) != nullptr;
  }

  /// Insert `value` under `key` if absent; returns {pointer, inserted}. One
  /// probe serves as both the lookup and the insertion point.
  std::pair<V*, bool> try_emplace(const K& key, const V& value) {
    if ((size_ + 1) * 4 > slots_.size() * 3) rehash(slots_.size() * 2);
    return insert_impl(key, value, Hash{}(key));
  }

  V& operator[](const K& key) { return *try_emplace(key, V{}).first; }

  void insert_or_assign(const K& key, const V& value) {
    auto [p, inserted] = try_emplace(key, value);
    if (!inserted) *p = value;
  }

  /// Remove `key`; returns true if it was present. Backward-shift deletion
  /// keeps probe sequences dense (no tombstones).
  bool erase(const K& key) noexcept {
    const std::size_t m = mask();
    std::size_t i = Hash{}(key) & m;
    std::uint16_t d = 1;
    while (true) {
      Slot& s = slots_[i];
      if (s.dist == 0 || s.dist < d) return false;
      if (s.dist == d && s.key == key) break;
      i = (i + 1) & m;
      ++d;
    }
    // Shift the cluster back over the vacated slot.
    std::size_t hole = i;
    std::size_t next = (hole + 1) & m;
    while (slots_[next].dist > 1) {
      slots_[hole] = slots_[next];
      --slots_[hole].dist;
      hole = next;
      next = (next + 1) & m;
    }
    slots_[hole].dist = 0;
    --size_;
    return true;
  }

  /// Visit every (key, value) pair; f may mutate the value.
  template <class F>
  void for_each(F&& f) {
    for (auto& s : slots_)
      if (s.dist != 0) f(static_cast<const K&>(s.key), s.value);
  }
  template <class F>
  void for_each(F&& f) const {
    for (const auto& s : slots_)
      if (s.dist != 0) f(s.key, s.value);
  }

 private:
  [[nodiscard]] std::size_t mask() const noexcept { return slots_.size() - 1; }

  std::pair<V*, bool> insert_impl(K key, V value, std::uint64_t h) {
    const K original_key = key;
    const std::size_t m = mask();
    std::size_t i = h & m;
    std::uint16_t d = 1;
    V* result = nullptr;
    while (true) {
      Slot& s = slots_[i];
      if (s.dist == 0) {
        s.key = key;
        s.value = value;
        s.dist = d;
        ++size_;
        return {result != nullptr ? result : &s.value, true};
      }
      if (s.dist == d && s.key == key) {
        assert(result == nullptr);
        return {&s.value, false};
      }
      if (s.dist < d) {
        // Robin-hood: the resident is closer to home than we are; displace it
        // and keep inserting the evicted entry.
        std::swap(s.key, key);
        std::swap(s.value, value);
        std::swap(s.dist, d);
        if (result == nullptr) result = &s.value;
      }
      i = (i + 1) & m;
      ++d;
      if (d == UINT16_MAX) {
        // Pathological clustering: grow, finish inserting the in-flight
        // (possibly displaced) entry, then re-locate the original key since
        // rehashing invalidated any pointer captured above.
        rehash(slots_.size() * 2);
        // `key` may be a displaced resident, not the original: re-hash it.
        insert_impl(key, value, Hash{}(key));
        return {find(original_key), true};
      }
    }
  }

  void rehash(std::size_t new_cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_cap, Slot{K{}, V{}, 0});
    size_ = 0;
    for (const auto& s : old)
      if (s.dist != 0) insert_impl(s.key, s.value, Hash{}(s.key));
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace rhhh
