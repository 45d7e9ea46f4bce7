// Space-Saving [Metwally, Agrawal & El Abbadi, ICDT'05] on the
// stream-summary structure.
//
// This is the paper's heavy-hitter building block (one instance per lattice
// node). The stream-summary keeps counters grouped into buckets of equal
// count, buckets in a doubly-linked list sorted by count, so a unit
// increment moves a counter to the adjacent bucket in O(1) *worst case* --
// the property Theorem 6.18 relies on for RHHH's O(1) update bound.
//
// Guarantees (m = capacity, N = total arrivals into this instance):
//   * tracked:   count - error <= f <= count, with error <= N/m
//   * untracked: f <= min-count over tracked counters (<= N/m)
//   * every key with f > N/m is tracked (heavy-hitter recall)
//
// The key index is a private robin-hood table of 8-byte slots {tag, counter}
// (see Slot below): a 2,001-counter instance indexes its keys in 32 KB. The
// index never decides output order -- for_each() walks the counter array and
// eviction takes the head of the lowest bucket -- so any layout of the table
// yields the same bytes downstream.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "hh/backend.hpp"
#include "util/bits.hpp"
#include "util/flat_hash_map.hpp"  // rebuild()'s count-to-bucket map
#include "util/key128.hpp"

namespace rhhh {

template <class Key, class Hash = KeyHash<Key>>
class SpaceSaving {
 public:
  explicit SpaceSaving(std::size_t capacity) : cap_(capacity) {
    if (capacity == 0) throw std::invalid_argument("SpaceSaving: capacity must be > 0");
    // Tags are 32-bit and so address at most 2^32 slots.
    if (capacity > kMaxCapacity) {
      throw std::invalid_argument("SpaceSaving: capacity must be <= 2^30");
    }
    counters_.resize(cap_);
    buckets_.resize(cap_ + 1);
    reset_freelist();
    // At most half full, so probe runs stay short and always end.
    slots_.assign(next_pow2(std::max<std::size_t>(8, 2 * cap_)), kEmpty);
    mask_ = slots_.size() - 1;
  }

  /// The key hash this instance's index uses. Exposed so batched callers can
  /// hash once, prefetch(), and later probe via increment_hashed() /
  /// find-paths without paying the hash again (the hash/probe split).
  [[nodiscard]] static std::uint64_t hash_of(const Key& k) noexcept {
    return Hash{}(k);
  }

  /// Pull the home slot of hash `h` toward L1 ahead of an
  /// increment_hashed(). Safe to issue for any hash value.
  void prefetch(std::uint64_t h) const noexcept {
    __builtin_prefetch(slots_.data() + (h & mask_), 0, 3);
  }

  /// Pull the counter cell of hash `h` toward L1: a dependent second-stage
  /// prefetch (the cell address needs one index probe, so issue this at a
  /// shorter distance than prefetch(), once the slot line has arrived). It
  /// follows the first slot whose tag matches, without comparing keys: a
  /// hint may land on another key's counter, never on a wrong answer.
  void prefetch_counter(std::uint64_t h) const noexcept {
    const auto tag = static_cast<std::uint32_t>(h);
    std::size_t i = tag & mask_;
    for (std::size_t d = 0;; i = (i + 1) & mask_, ++d) {
      const Slot s = slots_[i];
      if (s.counter == kNil || distance(s, i) < d) return;
      if (s.tag == tag) {
        __builtin_prefetch(counters_.data() + s.counter, 1, 3);
        return;
      }
    }
  }

  /// Count `w` arrivals of key `k`. O(1) for w == 1 (the RHHH datapath);
  /// weighted updates walk at most the number of distinct counts crossed.
  void increment(const Key& k, std::uint64_t w = 1) {
    increment_hashed(k, hash_of(k), w);
  }

  /// increment() with the key hash precomputed. A tracked hit and a
  /// fresh-counter insert walk the probe sequence once; an eviction erases
  /// the evicted key's slot (found by its counter's stored tag, without
  /// hashing that key) and then places the new key from its home slot.
  void increment_hashed(const Key& k, std::uint64_t h, std::uint64_t w = 1) {
    if (w == 0) return;
    total_ += w;
    const auto tag = static_cast<std::uint32_t>(h);
    const Probe p = probe(k, tag);
    if (p.counter != kNil) {
      advance(p.counter, w, true);
    } else if (size_ < cap_) {
      const auto c = static_cast<std::uint32_t>(size_++);
      counters_[c] = Counter{k, 0, 0, kNil, kNil, kNil, tag};
      place(Slot{tag, c}, p.slot);
      advance(c, w, false);
    } else {
      // Evict the minimum: replace its key, inherit its count as the error
      // bound (the classic Space-Saving replacement step). The erase may
      // shift the probe run, so the new key is placed from its home slot.
      const std::uint32_t b = bucket_head_;
      const std::uint32_t c = buckets_[b].head;
      const std::uint64_t min = buckets_[b].value;
      erase(c);
      place(Slot{tag, c}, tag & mask_);
      Counter& cn = counters_[c];
      cn.key = k;
      cn.tag = tag;
      cn.error = min;
      cn.count = min;
      ++evictions_;
      advance(c, w, true);
    }
  }

  /// Upper bound on the number of arrivals of `k`.
  [[nodiscard]] std::uint64_t upper(const Key& k) const noexcept {
    const std::uint32_t c = find(k, hash_of(k));
    return c != kNil ? counters_[c].count : min_bound();
  }
  /// Lower bound on the number of arrivals of `k`.
  [[nodiscard]] std::uint64_t lower(const Key& k) const noexcept {
    const std::uint32_t c = find(k, hash_of(k));
    return c != kNil ? counters_[c].count - counters_[c].error : 0;
  }
  [[nodiscard]] bool tracked(const Key& k) const noexcept {
    return find(k, hash_of(k)) != kNil;
  }

  /// Upper bound on the arrivals of *any* untracked key.
  [[nodiscard]] std::uint64_t min_bound() const noexcept {
    return size_ == cap_ ? buckets_[bucket_head_].value : 0;
  }

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

  /// Roster evictions since construction (or the last clear()). Churn over
  /// any window is the difference of two readings.
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }

  /// Introspection snapshot for the estimator health layer. O(1).
  [[nodiscard]] BackendProbe probe() const noexcept {
    BackendProbe p;
    p.total = total_;
    p.min_count = min_bound();
    p.evictions = evictions_;
    p.occupancy = size_;
    p.capacity = cap_;
    p.saturation =
        cap_ > 0 ? static_cast<double>(size_) / static_cast<double>(cap_) : 0.0;
    return p;
  }

  template <class F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < size_; ++i) {
      const Counter& c = counters_[i];
      f(c.key, c.count, c.count - c.error);
    }
  }

  [[nodiscard]] std::vector<HhEntry<Key>> entries() const {
    std::vector<HhEntry<Key>> out;
    (void)roster(out);
    return out;
  }

  /// This summary in merge(const Roster&) form, its entries() in `buf`.
  Roster<Key> roster(std::vector<HhEntry<Key>>& buf) const {
    buf.clear();
    buf.reserve(size_);
    for_each([&](const Key& k, std::uint64_t up, std::uint64_t lo) {
      buf.push_back(HhEntry<Key>{k, up, lo});
    });
    return Roster<Key>{buf, total_, evictions_, cap_};
  }

  /// Tracked keys whose upper bound meets `threshold` (superset of the true
  /// heavy hitters at that threshold).
  [[nodiscard]] std::vector<HhEntry<Key>> heavy_hitters(std::uint64_t threshold) const {
    std::vector<HhEntry<Key>> out;
    for_each([&](const Key& k, std::uint64_t up, std::uint64_t lo) {
      if (up >= threshold) out.push_back(HhEntry<Key>{k, up, lo});
    });
    return out;
  }

  void clear() {
    // A summary that holds no counter has an empty index and its bucket
    // free list in initial order (size_ only returns to 0 through here), so
    // the O(capacity) walks are skipped -- a freshly built instance about
    // to be load()ed pays them once, in the constructor.
    if (size_ != 0) {
      std::fill(slots_.begin(), slots_.end(), kEmpty);
      reset_freelist();
    }
    size_ = 0;
    total_ = 0;
    evictions_ = 0;
    bucket_head_ = kNil;
  }

  /// Merge another summary into this one; see merge(const Roster&).
  void merge(const SpaceSaving& other) {
    std::vector<HhEntry<Key>> buf;
    merge(other.roster(buf));
  }

  /// Merge a summary given in flat form into this one (mergeable-summaries
  /// semantics: Agarwal et al.). Counts add where keys overlap; a key
  /// tracked on only one side is charged the other side's min bound as
  /// additional count and error; the top `capacity()` merged counters are
  /// kept. Upper/lower bound guarantees are preserved for the combined
  /// stream. This is the paper's Section 7 multi-device aggregation path
  /// ("analyzing data from multiple network devices"). The roster's min
  /// bound is its smallest count when it fills its capacity, else 0.
  ///
  /// The merged list is this summary's counters in array order, then the
  /// roster's unmatched entries in roster order; it is sorted by upper
  /// bound, descending, and rebuilt smallest first. That order is kept on
  /// purpose: equal counts keep the order std::sort leaves them in, and
  /// that tie order fixes the merged counter-array layout (hence output()'s
  /// iteration order) and which counter is evicted first. The sort runs on
  /// 16-byte {upper, index} proxies with the same std::sort and comparator,
  /// so it makes the same comparisons and yields the same permutation, ties
  /// included.
  ///
  /// Throws std::invalid_argument, leaving this summary unchanged, when the
  /// roster repeats a key.
  void merge(const Roster<Key>& other) {
    const std::span<const HhEntry<Key>> in = other.entries;
    const std::size_t n = in.size();
    // Hash the roster up front: the probe loop prefetches index slots a few
    // entries ahead, and the duplicate check reuses the hashes.
    std::vector<std::uint64_t> hash(n);
    std::uint64_t their_min = ~std::uint64_t{0};
    for (std::size_t j = 0; j < n; ++j) {
      hash[j] = hash_of(in[j].key);
      their_min = std::min(their_min, in[j].upper);
    }
    if (n == 0 || n != other.capacity) their_min = 0;

    // One probe of this summary's index per roster entry; partner[i] is the
    // roster entry holding counter i's key.
    std::vector<std::uint32_t> partner(size_, kNil);
    std::vector<std::uint32_t> unmatched;
    unmatched.reserve(n);
    for (std::size_t j = 0; j < n; ++j) {
      if (j + kMergePrefetch < n) prefetch(hash[j + kMergePrefetch]);
      const std::uint32_t c = find(in[j].key, hash[j]);
      if (c == kNil) {
        unmatched.push_back(static_cast<std::uint32_t>(j));
      } else if (partner[c] == kNil) {
        partner[c] = static_cast<std::uint32_t>(j);
      } else {
        throw std::invalid_argument("SpaceSaving::merge: duplicate key in roster");
      }
    }
    if (!distinct_keys(in, hash, unmatched)) {
      throw std::invalid_argument("SpaceSaving::merge: duplicate key in roster");
    }

    const std::uint64_t my_min = min_bound();
    std::vector<HhEntry<Key>> merged;
    merged.reserve(size_ + unmatched.size());
    for (std::size_t i = 0; i < size_; ++i) {
      const Counter& c = counters_[i];
      const std::uint64_t lo = c.count - c.error;
      if (partner[i] == kNil) {
        merged.push_back(HhEntry<Key>{c.key, c.count + their_min, lo});
      } else {
        const HhEntry<Key>& o = in[partner[i]];
        merged.push_back(HhEntry<Key>{c.key, c.count + o.upper, lo + o.lower});
      }
    }
    for (const std::uint32_t j : unmatched) {
      merged.push_back(HhEntry<Key>{in[j].key, in[j].upper + my_min, in[j].lower});
    }
    struct Proxy {
      std::uint64_t upper;
      std::uint32_t index;
    };
    std::vector<Proxy> order(merged.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
      order[i] = Proxy{merged[i].upper, static_cast<std::uint32_t>(i)};
    }
    std::sort(order.begin(), order.end(),
              [](const Proxy& a, const Proxy& b) { return a.upper > b.upper; });
    const std::size_t kept = std::min(order.size(), cap_);

    const std::uint64_t combined_total = total_ + other.total;
    // The rebuild never evicts; churn from both input streams carries through.
    const std::uint64_t combined_evictions = evictions_ + other.evictions;
    (void)rebuild(kept, [&](std::size_t i) -> const HhEntry<Key>& {
      return merged[order[kept - 1 - i].index];  // smallest count first
    });  // keys are distinct
    total_ = combined_total;
    evictions_ = combined_evictions;
  }

  /// Rebuild this summary from a serialized roster (the durable store's
  /// reload path). Entries must arrive in the counter-array order for_each
  /// emits: the reloaded instance then reproduces the original's iteration
  /// order (hence byte-identical downstream HHH sets) and eviction order.
  /// `total` restores the arrivals count, which merge() legitimately keeps
  /// above the sum of the retained counters. Throws std::invalid_argument
  /// on impossible rosters (over capacity, zero counts, error > count, a
  /// repeated key) -- corrupt input must fail loudly, never corrupt the
  /// structure.
  void load(std::span<const HhEntry<Key>> entries, std::uint64_t total) {
    if (entries.size() > cap_) {
      throw std::invalid_argument("SpaceSaving::load: roster exceeds capacity");
    }
    for (const HhEntry<Key>& e : entries) {
      if (e.upper == 0 || e.lower > e.upper) {
        throw std::invalid_argument("SpaceSaving::load: impossible entry bounds");
      }
    }
    if (!rebuild(entries.size(),
                 [&](std::size_t i) -> const HhEntry<Key>& { return entries[i]; })) {
      throw std::invalid_argument("SpaceSaving::load: duplicate key in roster");
    }
    total_ = total;
  }

  /// Structural invariant check for tests: bucket list ascending and
  /// consistent, every counter indexed under its own hash's tag and found by
  /// a probe, and the index holding exactly size() slots.
  [[nodiscard]] bool validate() const {
    std::size_t seen = 0;
    std::uint64_t sum = 0;
    std::uint64_t prev_value = 0;
    bool first_bucket = true;
    for (std::uint32_t b = bucket_head_; b != kNil; b = buckets_[b].next) {
      const Bucket& bk = buckets_[b];
      if (!first_bucket && bk.value <= prev_value) return false;
      first_bucket = false;
      prev_value = bk.value;
      if (bk.head == kNil) return false;  // empty buckets must be freed
      std::uint32_t prev_c = kNil;
      for (std::uint32_t c = bk.head; c != kNil; c = counters_[c].next) {
        const Counter& cn = counters_[c];
        if (cn.bucket != b || cn.prev != prev_c) return false;
        if (cn.count != bk.value || cn.error > cn.count) return false;
        const std::uint64_t h = hash_of(cn.key);
        if (cn.tag != static_cast<std::uint32_t>(h) || find(cn.key, h) != c) return false;
        sum += cn.count;
        ++seen;
        prev_c = c;
      }
    }
    (void)sum;  // equals total() for pure streams; merge() legitimately drops mass
    const auto indexed = std::count_if(slots_.begin(), slots_.end(),
                                       [](const Slot& s) { return s.counter != kNil; });
    return seen == size_ && static_cast<std::size_t>(indexed) == size_;
  }

  /// Bytes of the three arrays this instance allocated.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return counters_.capacity() * sizeof(Counter) +
           buckets_.capacity() * sizeof(Bucket) + slots_.capacity() * sizeof(Slot);
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 30;

  struct Counter {
    Key key{};
    std::uint64_t count = 0;
    std::uint64_t error = 0;
    std::uint32_t bucket = kNil;
    std::uint32_t prev = kNil;  // within-bucket list
    std::uint32_t next = kNil;
    std::uint32_t tag = 0;  // the key's index tag; fills Key128's padding
  };
  static_assert(!std::is_same_v<Key, Key128> || sizeof(Counter) == 48);

  struct Bucket {
    std::uint64_t value = 0;
    std::uint32_t head = kNil;  // first counter in this bucket
    std::uint32_t prev = kNil;  // bucket list (ascending by value)
    std::uint32_t next = kNil;
  };

  /// One index slot: the low 32 bits of the key hash and the key's counter.
  /// The home slot is `tag & mask_`, so a slot's probe distance follows
  /// from its tag; a tag match is confirmed against the counter's key.
  /// Robin-hood insertion and backward-shift erase keep each probe run
  /// dense and ordered by distance, so a probe stops at the first empty
  /// slot or the first resident closer to its home than the probe is.
  struct Slot {
    std::uint32_t tag;
    std::uint32_t counter;  // kNil: empty
  };
  static constexpr Slot kEmpty{0, kNil};

  /// Where a key sits in the index: its counter, or kNil and the slot at
  /// which its robin-hood insertion starts.
  struct Probe {
    std::uint32_t counter;
    std::size_t slot;
  };

  /// Probe distance of slot `s` at position `i` from its home slot.
  [[nodiscard]] std::size_t distance(Slot s, std::size_t i) const noexcept {
    return (i - (s.tag & mask_)) & mask_;
  }

  [[nodiscard]] Probe probe(const Key& k, std::uint32_t tag) const noexcept {
    std::size_t i = tag & mask_;
    for (std::size_t d = 0;; i = (i + 1) & mask_, ++d) {
      const Slot s = slots_[i];
      if (s.counter == kNil || distance(s, i) < d) return Probe{kNil, i};
      if (s.tag == tag && counters_[s.counter].key == k) return Probe{s.counter, i};
    }
  }

  /// The counter index of `k` (hashed `h`), or kNil when untracked.
  [[nodiscard]] std::uint32_t find(const Key& k, std::uint64_t h) const noexcept {
    return probe(k, static_cast<std::uint32_t>(h)).counter;
  }

  /// Robin-hood insertion of `s` (its key absent), starting at slot `i` on
  /// its probe run: a resident closer to its home than `s` is yields the
  /// slot and moves on in its place.
  void place(Slot s, std::size_t i) noexcept {
    for (;; i = (i + 1) & mask_) {
      Slot& r = slots_[i];
      if (r.counter == kNil) {
        r = s;
        return;
      }
      if (distance(r, i) < distance(s, i)) std::swap(r, s);
    }
  }

  /// Remove counter c's slot, found from its stored tag's home by counter
  /// index, and shift the rest of the run back over it.
  void erase(std::uint32_t c) noexcept {
    std::size_t i = counters_[c].tag & mask_;
    while (slots_[i].counter != c) i = (i + 1) & mask_;
    for (std::size_t next = (i + 1) & mask_;; i = next, next = (next + 1) & mask_) {
      const Slot s = slots_[next];
      if (s.counter == kNil || (s.tag & mask_) == next) break;
      slots_[i] = s;
    }
    slots_[i] = kEmpty;
  }

  void reset_freelist() noexcept {
    bucket_free_ = 0;
    for (std::uint32_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i].next = (i + 1 < buckets_.size()) ? i + 1 : kNil;
    }
  }

  [[nodiscard]] std::uint32_t alloc_bucket(std::uint64_t value) noexcept {
    const std::uint32_t b = bucket_free_;
    bucket_free_ = buckets_[b].next;
    buckets_[b] = Bucket{value, kNil, kNil, kNil};
    return b;
  }
  void free_bucket(std::uint32_t b) noexcept {
    buckets_[b].next = bucket_free_;
    bucket_free_ = b;
  }

  void detach_counter(std::uint32_t c) noexcept {
    Counter& cn = counters_[c];
    if (cn.prev != kNil) {
      counters_[cn.prev].next = cn.next;
    } else {
      buckets_[cn.bucket].head = cn.next;
    }
    if (cn.next != kNil) counters_[cn.next].prev = cn.prev;
  }

  void push_counter(std::uint32_t c, std::uint32_t b) noexcept {
    Counter& cn = counters_[c];
    cn.bucket = b;
    cn.prev = kNil;
    cn.next = buckets_[b].head;
    if (cn.next != kNil) counters_[cn.next].prev = c;
    buckets_[b].head = c;
  }

  void insert_bucket_after(std::uint32_t b, std::uint32_t after) noexcept {
    Bucket& bn = buckets_[b];
    if (after == kNil) {
      bn.prev = kNil;
      bn.next = bucket_head_;
      if (bucket_head_ != kNil) buckets_[bucket_head_].prev = b;
      bucket_head_ = b;
    } else {
      bn.prev = after;
      bn.next = buckets_[after].next;
      if (bn.next != kNil) buckets_[bn.next].prev = b;
      buckets_[after].next = b;
    }
  }

  void remove_bucket(std::uint32_t b) noexcept {
    const Bucket& bn = buckets_[b];
    if (bn.prev != kNil) {
      buckets_[bn.prev].next = bn.next;
    } else {
      bucket_head_ = bn.next;
    }
    if (bn.next != kNil) buckets_[bn.next].prev = bn.prev;
    free_bucket(b);
  }

  /// Index-slot lookahead of merge()'s probe loop and rebuild()'s inserts,
  /// in entries (a power of two).
  static constexpr std::size_t kMergePrefetch = 8;

  /// True iff roster entries `which` (hashed in `hash`) carry distinct keys:
  /// linear probing over 4-byte roster positions, keys compared on equal
  /// hashes (a FlatHashMap of the keys measured ~3x slower here).
  [[nodiscard]] static bool distinct_keys(std::span<const HhEntry<Key>> in,
                                          const std::vector<std::uint64_t>& hash,
                                          const std::vector<std::uint32_t>& which) {
    std::vector<std::uint32_t> table(next_pow2(2 * which.size() + 1), kNil);
    const std::size_t mask = table.size() - 1;
    for (const std::uint32_t j : which) {
      std::size_t i = hash[j] & mask;
      for (; table[i] != kNil; i = (i + 1) & mask) {
        if (hash[table[i]] == hash[j] && in[table[i]].key == in[j].key) return false;
      }
      table[i] = j;
    }
    return true;
  }

  /// Clear, then fill with the n entries get(0..n-1) -- at most cap_, keys
  /// distinct -- in O(n + distinct counts * log). The result is exactly the
  /// structure successive increment(key, upper) calls build in an empty
  /// summary: entry i takes array slot i, buckets are allocated in the
  /// order their count is first seen, and each bucket lists its counters
  /// newest first (the order eviction takes them in). While the counts
  /// ascend (merge() feeds them so) every new count opens the next bucket
  /// in order; the count-to-bucket map and the final bucket sort are only
  /// needed once a count descends (load()'s arbitrary rosters). On a
  /// repeated key it returns false with the summary cleared.
  template <class Get>
  [[nodiscard]] bool rebuild(std::size_t n, Get&& get) {
    clear();
    std::optional<FlatHashMap<std::uint64_t, std::uint32_t>> bucket_of;
    std::vector<std::uint32_t> order;  // allocated buckets
    std::uint32_t b = kNil;            // the previous entry's bucket
    std::array<std::uint64_t, kMergePrefetch> ahead{};  // hashes of i..i+D-1
    for (std::size_t i = 0; i < std::min(n, kMergePrefetch); ++i) {
      ahead[i] = hash_of(get(i).key);
      prefetch(ahead[i]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const HhEntry<Key>& e = get(i);
      std::uint64_t& h = ahead[i & (kMergePrefetch - 1)];
      const auto c = static_cast<std::uint32_t>(size_);
      const auto tag = static_cast<std::uint32_t>(h);
      const Probe p = probe(e.key, tag);
      if (p.counter != kNil) {
        clear();
        return false;
      }
      counters_[c] = Counter{e.key, e.upper, e.upper - e.lower, kNil, kNil, kNil, tag};
      place(Slot{tag, c}, p.slot);
      if (i + kMergePrefetch < n) {
        h = hash_of(get(i + kMergePrefetch).key);
        prefetch(h);
      }
      ++size_;
      // Runs of equal counts share the previous entry's bucket.
      if (b == kNil || buckets_[b].value != e.upper) {
        if (!bucket_of && (b == kNil || buckets_[b].value < e.upper)) {
          b = alloc_bucket(e.upper);
          order.push_back(b);
        } else {
          if (!bucket_of) {
            bucket_of.emplace();
            for (const std::uint32_t o : order) bucket_of->try_emplace(buckets_[o].value, o);
          }
          auto [slot, fresh] = bucket_of->try_emplace(e.upper, kNil);
          if (fresh) {
            *slot = alloc_bucket(e.upper);
            order.push_back(*slot);
          }
          b = *slot;
        }
      }
      push_counter(c, b);
    }
    if (bucket_of) {
      std::sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
        return buckets_[x].value < buckets_[y].value;
      });
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      buckets_[order[i]].prev = i > 0 ? order[i - 1] : kNil;
      buckets_[order[i]].next = i + 1 < order.size() ? order[i + 1] : kNil;
    }
    bucket_head_ = order.empty() ? kNil : order.front();
    return true;
  }

  /// Move counter c forward by w; `attached` says whether c currently sits
  /// in a bucket (false only for a brand-new counter).
  void advance(std::uint32_t c, std::uint64_t w, bool attached) noexcept {
    Counter& cn = counters_[c];
    const std::uint64_t target = cn.count + w;
    std::uint32_t old_bucket = kNil;
    std::uint32_t last = kNil;  // last bucket with value < target
    if (attached) {
      old_bucket = cn.bucket;
      detach_counter(c);
      last = old_bucket;  // its value == old count < target
    }
    std::uint32_t next = (last == kNil) ? bucket_head_ : buckets_[last].next;
    while (next != kNil && buckets_[next].value < target) {
      last = next;
      next = buckets_[next].next;
    }
    if (next != kNil && buckets_[next].value == target) {
      push_counter(c, next);
    } else {
      const std::uint32_t b = alloc_bucket(target);
      insert_bucket_after(b, last);
      push_counter(c, b);
    }
    cn.count = target;
    if (old_bucket != kNil && buckets_[old_bucket].head == kNil) {
      remove_bucket(old_bucket);
    }
  }

  std::vector<Counter> counters_;
  std::vector<Bucket> buckets_;
  std::uint32_t bucket_free_ = kNil;
  std::uint32_t bucket_head_ = kNil;
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t cap_;
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace rhhh
