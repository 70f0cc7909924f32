/**
 * @file
 * Bounded LRU cache.
 *
 * The storage primitive behind the serving layer's histogram cache
 * (api::ExecutionService), the memo of deterministic distributions
 * (noise::DistributionMemo) and the router's exec-key -> shard
 * affinity map (net::ShardRouter): a map bounded by a capacity in
 * weight units whose least recently used entries are evicted on
 * overflow.  Every entry weighs 1 unless put() says otherwise, so the
 * capacity counts entries by default and bytes where the caller
 * weighs entries by their size.  Lookup and insertion are O(1) plus
 * one step per evicted entry; recency is tracked on both get() and
 * put().  Not synchronised — callers that share one cache across
 * threads hold their own lock (each keeps it under the same mutex as
 * its counters).
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
 * Capacity-bounded least-recently-used cache; keys are std::string
 * unless @p Key says otherwise (any hashable, copyable type).
 */
template <typename Value, typename Key = std::string>
class LruCache
{
  public:
    /** @param capacity Maximum total weight; must be >= 1. */
    explicit LruCache(std::size_t capacity) : capacity_(capacity)
    {
        require(capacity >= 1, "LruCache: capacity must be >= 1");
    }

    std::size_t capacity() const { return capacity_; }
    /** Entries held. */
    std::size_t size() const { return order_.size(); }
    /** Summed weight of the entries held; never above capacity(). */
    std::size_t weight() const { return weight_; }

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
        return &it->second->value;
    }

    /**
     * Insert or overwrite @p key with weight @p weight, marking it
     * most recently used and evicting least recently used entries
     * until the total weight fits the capacity.  A value heavier than
     * the whole capacity is not kept (an older value under @p key is
     * dropped too).
     */
    void put(const Key &key, Value value, std::size_t weight = 1)
    {
        erase(key);
        if (weight > capacity_)
            return;
        while (weight_ + weight > capacity_) {
            weight_ -= order_.back().weight;
            index_.erase(order_.back().key);
            order_.pop_back();
        }
        order_.push_front({key, std::move(value), weight});
        index_.emplace(key, order_.begin());
        weight_ += weight;
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
        weight_ -= it->second->weight;
        order_.erase(it->second);
        index_.erase(it);
        return true;
    }

    void clear()
    {
        order_.clear();
        index_.clear();
        weight_ = 0;
    }

  private:
    struct Node
    {
        Key key;
        Value value;
        std::size_t weight;
    };

    std::size_t capacity_;
    std::size_t weight_ = 0;
    std::list<Node> order_; // MRU first
    std::unordered_map<Key, typename std::list<Node>::iterator> index_;
};

} // namespace hammer::common

#endif // HAMMER_COMMON_LRU_CACHE_HPP
