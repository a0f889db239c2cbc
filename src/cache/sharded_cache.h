#ifndef IQS_CACHE_SHARDED_CACHE_H_
#define IQS_CACHE_SHARDED_CACHE_H_

#include <atomic>
#include <cstdint>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace iqs {
namespace cache {

// Lifetime totals of one cache. Counters are relaxed atomics (mirroring
// obs::Counter): exact under quiescence, monotone under concurrency.
struct CacheCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;

  double hit_ratio() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

// A sharded LRU map from string keys to shared immutable values. Lookups
// and inserts hash the key to one of `shards` independent shards, each a
// doubly-linked recency list plus an index, guarded by its own mutex —
// concurrent readers on different shards never contend, and no lock is
// ever held across user code: values are handed out as shared_ptr, so an
// entry evicted mid-read stays alive for the reader holding it, and a
// value the cache drops is destroyed after the shard's mutex is released.
//
// Capacity is enforced per shard (total capacity / shard count, at least
// one entry each), so the steady-state size stays within `capacity` of
// the configured total. There are no TTLs anywhere: correctness comes
// from versioned keys (the caller embeds epoch counters in the key, see
// query_cache.h), never from time.
template <typename V>
class ShardedLruCache {
 public:
  explicit ShardedLruCache(size_t capacity = 1024, size_t shard_count = 8)
      : shards_(shard_count == 0 ? 1 : shard_count) {
    set_capacity(capacity);
  }

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  // The cached value, or null on miss. A hit refreshes recency.
  std::shared_ptr<const V> Lookup(const std::string& key) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    shard.entries.splice(shard.entries.begin(), shard.entries, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second->second;
  }

  // Inserts (or refreshes) `key`, evicting least-recently-used entries
  // beyond the shard capacity. Null values are ignored.
  void Insert(const std::string& key, std::shared_ptr<const V> value) {
    if (value == nullptr) return;
    // Declared before the lock, so a replaced or evicted value is
    // released after the unlock: freeing a large value (a cached answer
    // holds about a thousand statements) never holds the shard's mutex.
    std::shared_ptr<const V> replaced;
    Entries evicted;
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      replaced = std::exchange(it->second->second, std::move(value));
      shard.entries.splice(shard.entries.begin(), shard.entries, it->second);
      return;
    }
    shard.entries.emplace_front(key, std::move(value));
    shard.index[key] = shard.entries.begin();
    inserts_.fetch_add(1, std::memory_order_relaxed);
    size_t cap = per_shard_capacity_.load(std::memory_order_relaxed);
    while (shard.entries.size() > cap) {
      shard.index.erase(shard.entries.back().first);
      evicted.splice(evicted.end(), shard.entries,
                     std::prev(shard.entries.end()));
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void Clear() {
    for (Shard& shard : shards_) {
      Entries released;  // freed after the unlock, as in Insert
      std::lock_guard<std::mutex> lock(shard.mu);
      released.swap(shard.entries);
      shard.index.clear();
    }
  }

  // Total capacity across shards; each shard gets an equal slice (>= 1).
  // Shrinking trims each shard on its next insert, not eagerly.
  void set_capacity(size_t capacity) {
    capacity_.store(capacity, std::memory_order_relaxed);
    size_t per_shard = capacity / shards_.size();
    per_shard_capacity_.store(per_shard == 0 ? 1 : per_shard,
                              std::memory_order_relaxed);
  }
  size_t capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }

  size_t size() const {
    size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.entries.size();
    }
    return total;
  }

  CacheCounters counters() const {
    CacheCounters c;
    c.hits = hits_.load(std::memory_order_relaxed);
    c.misses = misses_.load(std::memory_order_relaxed);
    c.inserts = inserts_.load(std::memory_order_relaxed);
    c.evictions = evictions_.load(std::memory_order_relaxed);
    return c;
  }

  void ResetCounters() {
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    inserts_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
  }

 private:
  using Entries = std::list<std::pair<std::string, std::shared_ptr<const V>>>;

  struct Shard {
    mutable std::mutex mu;
    Entries entries;  // front = most recently used
    std::unordered_map<std::string, typename Entries::iterator> index;
  };

  Shard& ShardFor(const std::string& key) {
    return shards_[std::hash<std::string>{}(key) % shards_.size()];
  }

  std::vector<Shard> shards_;
  std::atomic<size_t> capacity_{0};
  std::atomic<size_t> per_shard_capacity_{1};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace cache
}  // namespace iqs

#endif  // IQS_CACHE_SHARDED_CACHE_H_
