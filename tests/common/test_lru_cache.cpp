/**
 * @file
 * LruCache: bounded capacity, recency on get and put, eviction
 * order, for the default std::string keys and for integer keys, and
 * per-entry weights.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/lru_cache.hpp"

namespace {

using hammer::common::LruCache;

TEST(LruCache, StoresAndRetrieves)
{
    LruCache<int> cache(3);
    EXPECT_EQ(cache.capacity(), 3u);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.get("a"), nullptr);

    cache.put("a", 1);
    cache.put("b", 2);
    ASSERT_NE(cache.get("a"), nullptr);
    EXPECT_EQ(*cache.get("a"), 1);
    EXPECT_EQ(*cache.get("b"), 2);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(cache.contains("a"));
    EXPECT_FALSE(cache.contains("c"));
}

TEST(LruCache, PutOverwritesInPlace)
{
    LruCache<int> cache(2);
    cache.put("a", 1);
    cache.put("a", 10);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(*cache.get("a"), 10);
}

TEST(LruCache, EvictsTheLeastRecentlyUsed)
{
    LruCache<int> cache(2);
    cache.put("a", 1);
    cache.put("b", 2);
    cache.put("c", 3); // evicts "a"
    EXPECT_FALSE(cache.contains("a"));
    EXPECT_TRUE(cache.contains("b"));
    EXPECT_TRUE(cache.contains("c"));
    EXPECT_EQ(cache.size(), 2u);

    // Integer keys (net::ShardRouter's hash -> shard affinity map).
    LruCache<std::size_t, std::uint64_t> affinity(2);
    affinity.put(0xA, 0);
    affinity.put(0xB, 1);
    ASSERT_NE(affinity.get(0xA), nullptr); // 0xB is now LRU
    affinity.put(0xC, 1);                  // evicts 0xB
    EXPECT_EQ(*affinity.get(0xA), 0u);
    EXPECT_FALSE(affinity.contains(0xB));
    EXPECT_EQ(*affinity.get(0xC), 1u);
    EXPECT_EQ(affinity.size(), 2u);
}

TEST(LruCache, GetRefreshesRecency)
{
    LruCache<int> cache(2);
    cache.put("a", 1);
    cache.put("b", 2);
    EXPECT_EQ(*cache.get("a"), 1); // "b" is now LRU
    cache.put("c", 3);             // evicts "b"
    EXPECT_TRUE(cache.contains("a"));
    EXPECT_FALSE(cache.contains("b"));
}

TEST(LruCache, PutRefreshesRecency)
{
    LruCache<int> cache(2);
    cache.put("a", 1);
    cache.put("b", 2);
    cache.put("a", 10); // "b" is now LRU
    cache.put("c", 3);  // evicts "b"
    EXPECT_TRUE(cache.contains("a"));
    EXPECT_FALSE(cache.contains("b"));
}

TEST(LruCache, WeightsBoundTheTotalAndEvictLeastRecentFirst)
{
    // Capacity in weight units (bytes, for the distribution memo).
    LruCache<int> cache(10);
    cache.put("a", 1, 4);
    cache.put("b", 2, 4);
    EXPECT_EQ(cache.weight(), 8u);
    ASSERT_NE(cache.get("a"), nullptr); // "b" is now LRU
    cache.put("c", 3, 5);               // 13 > 10: evicts "b" only
    EXPECT_TRUE(cache.contains("a"));
    EXPECT_FALSE(cache.contains("b"));
    EXPECT_EQ(cache.weight(), 9u);
    cache.put("d", 4, 10);              // evicts both
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.weight(), 10u);

    // Overwriting re-weighs the entry.
    cache.put("d", 5, 2);
    EXPECT_EQ(*cache.get("d"), 5);
    EXPECT_EQ(cache.weight(), 2u);
    EXPECT_TRUE(cache.erase("d"));
    EXPECT_EQ(cache.weight(), 0u);
}

TEST(LruCache, ValueHeavierThanTheCapacityIsNotKept)
{
    LruCache<int> cache(10);
    cache.put("a", 1, 6);
    cache.put("big", 2, 11);
    EXPECT_FALSE(cache.contains("big"));
    EXPECT_TRUE(cache.contains("a")) << "nothing evicted for it";
    EXPECT_EQ(cache.weight(), 6u);
    // An older value under the key does not outlive the rejected one.
    cache.put("a", 3, 11);
    EXPECT_FALSE(cache.contains("a"));
    EXPECT_EQ(cache.weight(), 0u);
}

TEST(LruCache, ClearAndCapacityValidation)
{
    LruCache<int> cache(2);
    cache.put("a", 1);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.weight(), 0u);
    EXPECT_FALSE(cache.contains("a"));
    EXPECT_THROW(LruCache<int>(0), std::invalid_argument);
}

} // namespace
