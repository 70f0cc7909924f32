/**
 * @file
 * Bounded LRU cache.
 *
 * The storage primitive behind the serving layer's histogram cache
 * (api::ExecutionService), the exact backend's density-matrix memo
 * (noise::ExactSampler) and the router's exec-key -> shard affinity
 * map (net::ShardRouter): a fixed-capacity map whose least recently
 * used entry is evicted on overflow.  Lookup and insertion are O(1);
 * recency is tracked on both get() and put().  Not synchronised —
 * callers that share one cache across threads hold their own lock
 * (each keeps it under the same mutex as its counters).
 */

#ifndef HAMMER_COMMON_LRU_CACHE_HPP
#define HAMMER_COMMON_LRU_CACHE_HPP

#include <cstddef>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/logging.hpp"

namespace hammer::common {

/**
 * Fixed-capacity least-recently-used cache; keys are std::string
 * unless @p Key says otherwise (any hashable, copyable type).
 */
template <typename Value, typename Key = std::string>
class LruCache
{
  public:
    /** @param capacity Maximum entries; must be >= 1. */
    explicit LruCache(std::size_t capacity) : capacity_(capacity)
    {
        require(capacity >= 1, "LruCache: capacity must be >= 1");
    }

    std::size_t capacity() const { return capacity_; }
    std::size_t size() const { return order_.size(); }

    /**
     * Look up @p key, refreshing its recency.
     *
     * @return Pointer to the cached value (owned by the cache, valid
     *         until the entry is evicted or replaced), or nullptr.
     */
    Value *get(const Key &key)
    {
        const auto it = index_.find(key);
        if (it == index_.end())
            return nullptr;
        order_.splice(order_.begin(), order_, it->second);
        return &it->second->second;
    }

    /**
     * Insert or overwrite @p key, marking it most recently used and
     * evicting the least recently used entry on overflow.
     */
    void put(const Key &key, Value value)
    {
        const auto it = index_.find(key);
        if (it != index_.end()) {
            it->second->second = std::move(value);
            order_.splice(order_.begin(), order_, it->second);
            return;
        }
        if (order_.size() >= capacity_) {
            index_.erase(order_.back().first);
            order_.pop_back();
        }
        order_.emplace_front(key, std::move(value));
        index_.emplace(key, order_.begin());
    }

    /** True when @p key is cached (recency unchanged). */
    bool contains(const Key &key) const
    {
        return index_.find(key) != index_.end();
    }

    /**
     * Remove @p key if present (the integrity-eviction path: a cache
     * hit whose checksum fails verification is erased so the next
     * lookup recomputes).  Returns true when an entry was removed.
     */
    bool erase(const Key &key)
    {
        const auto it = index_.find(key);
        if (it == index_.end())
            return false;
        order_.erase(it->second);
        index_.erase(it);
        return true;
    }

    void clear()
    {
        order_.clear();
        index_.clear();
    }

  private:
    std::size_t capacity_;
    std::list<std::pair<Key, Value>> order_; // MRU first
    std::unordered_map<
        Key, typename std::list<std::pair<Key, Value>>::iterator>
        index_;
};

} // namespace hammer::common

#endif // HAMMER_COMMON_LRU_CACHE_HPP
