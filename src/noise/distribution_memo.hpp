/**
 * @file
 * The process-wide memo of deterministic distributions.
 *
 * Two backends derive a distribution that depends on nothing but the
 * circuit: `channel` runs the ideal simulation for the clean
 * measurement distribution, and `exact` evolves the density matrix
 * (under a noise model, for a measured width).  A sweep sends the
 * same circuits again and again under new seeds and shot budgets, so
 * both keep what they derived in one memo: one LRU bounded in bytes
 * (DistributionMemo::kBudgetBytes), one lock, one CacheStats.  A hit
 * hands back exactly what a cold build computes, so the memo never
 * changes a histogram.
 *
 * Concurrent first requests for one key may both build the entry;
 * the build is deterministic, so either insert wins.
 */

#ifndef HAMMER_NOISE_DISTRIBUTION_MEMO_HPP
#define HAMMER_NOISE_DISTRIBUTION_MEMO_HPP

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "circuits/transpiler.hpp"
#include "common/bitops.hpp"
#include "common/lru_cache.hpp"
#include "core/distribution.hpp"
#include "noise/noise_model.hpp"
#include "sim/statevector.hpp"

namespace hammer::noise {

/**
 * Uniform cache observability: one counter triple shared by every
 * caching layer in the stack (the distribution memo, the serving
 * layer's histogram LRU), so entry points can report hit rates the
 * same way regardless of which cache served.
 */
struct CacheStats
{
    std::size_t entries = 0; ///< Values currently cached.
    std::size_t hits = 0;    ///< Lookups served from the cache.
    std::size_t misses = 0;  ///< Lookups that had to compute.

    /** hits / (hits + misses); 0 when no lookups happened. */
    double hitRate() const
    {
        const std::size_t total = hits + misses;
        return total == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(total);
    }
};

/**
 * A circuit's clean measurement distribution, restricted to its
 * support: the nonzero entries in basis-state order as logical
 * outcomes, with StateVector::sparseCdf's running prefix sums.
 *
 * resolve() maps a draw `uniform * norm()` to the logical outcome of
 * the basis state StateVector::sampleShots picks for the same draw,
 * in O(log support) instead of a sweep over all 2^n amplitudes.
 */
class CleanDistribution
{
  public:
    /** From @p routed's evolved @p state, read through its layout. */
    CleanDistribution(const sim::StateVector &state,
                      const circuits::RoutedCircuit &routed);

    /** Squared norm draws are scaled by (StateVector::normSquared()). */
    double norm() const { return norm_; }

    /** Nonzero entries kept. */
    std::size_t support() const { return outcomes_.size(); }

    /** Heap and object bytes held (the entry's memo weight). */
    std::size_t bytes() const;

    /**
     * Logical outcome of @p draw: the first prefix above it, else
     * (at or past the total) the last basis state.
     */
    common::Bits resolve(double draw) const
    {
        const auto it =
            std::upper_bound(prefix_.begin(), prefix_.end(), draw);
        return it == prefix_.end()
            ? fallback_
            : outcomes_[static_cast<std::size_t>(it - prefix_.begin())];
    }

  private:
    std::vector<common::Bits> outcomes_;
    std::vector<double> prefix_;
    double norm_;
    common::Bits fallback_;
};

/**
 * Byte-bounded, mutex-guarded memo of CleanDistribution and exact
 * density-matrix distributions.  The process shares one (shared());
 * other instances exist only for tests of the eviction policy.
 */
class DistributionMemo
{
  public:
    /**
     * Budget of the shared memo.  A dense 20-qubit clean distribution
     * takes 16 MiB, a sparse BV or GHZ one well under 1 KiB, an exact
     * one at most 16 KiB (10 qubits).  An entry larger than the
     * budget is served but not kept.
     */
    static constexpr std::size_t kBudgetBytes = std::size_t{64} << 20;

    explicit DistributionMemo(std::size_t budget_bytes);

    /** The process-wide memo. */
    static DistributionMemo &shared();

    /** @p routed's clean distribution, simulated on a miss. */
    std::shared_ptr<const CleanDistribution>
    clean(const circuits::RoutedCircuit &routed);

    /**
     * The exact distribution of @p routed under @p model on
     * @p measured_qubits bits, computed by @p evolve on a miss.
     */
    std::shared_ptr<const core::Distribution>
    exact(const circuits::RoutedCircuit &routed, int measured_qubits,
          const NoiseModel &model,
          const std::function<core::Distribution()> &evolve);

    /** Entries, hits and misses. */
    CacheStats stats() const;

    /** Bytes held; never above budget(). */
    std::size_t bytes() const;

    std::size_t budget() const { return lru_.capacity(); }

    /** Drop every entry and reset the counters. */
    void clear();

  private:
    // shared_ptr values: a sampler keeps drawing from a distribution
    // it already resolved even if eviction or clear() drops it.  The
    // key's first byte names the alternative.
    using Value = std::variant<std::shared_ptr<const CleanDistribution>,
                               std::shared_ptr<const core::Distribution>>;

    template <typename T, typename Build>
    std::shared_ptr<const T> fetch(const std::string &key,
                                   const Build &build);

    mutable std::mutex mutex_;
    common::LruCache<Value> lru_;
    std::size_t hits_ = 0;
    std::size_t misses_ = 0;
};

} // namespace hammer::noise

#endif // HAMMER_NOISE_DISTRIBUTION_MEMO_HPP
