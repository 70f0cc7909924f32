/**
 * @file
 * Exact density-matrix noisy backend.
 *
 * Evolves the full density matrix with depolarising channels after
 * every gate (the channels TrajectorySampler unravels stochastically)
 * and the exact readout channel at the end, then samples shots from
 * the resulting distribution.  Exponentially expensive (4^n), so it
 * serves as the <= 10-qubit ground truth for validating the two fast
 * backends — not for the large sweeps.
 *
 * The 4^n evolution runs once per distinct (circuit, noise model,
 * measured qubits): sample() draws from a bounded, process-wide memo
 * of evolved distributions, so further shot budgets and seeds only
 * resample.  The memo never changes a histogram — a hit hands back
 * the distribution a cold evolution computes.
 */

#ifndef HAMMER_NOISE_EXACT_SAMPLER_HPP
#define HAMMER_NOISE_EXACT_SAMPLER_HPP

#include <cstddef>

#include "noise/noise_model.hpp"
#include "noise/sampler.hpp"

namespace hammer::noise {

/**
 * Uniform cache observability: one counter triple shared by every
 * caching layer in the stack (ExactSampler's density-matrix memo,
 * the serving layer's histogram LRU), so entry points can report hit
 * rates the same way regardless of which cache served.
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
 * Exact mixed-state noisy sampler.
 */
class ExactSampler : public NoisySampler
{
  public:
    /**
     * Capacity of the process-wide memo, in evolved distributions
     * (least recently used evicted first).  The density matrix is
     * capped at 10 qubits, so one entry holds at most 2^10 outcomes
     * (16 KiB).
     */
    static constexpr std::size_t kMemoCapacity = 256;

    explicit ExactSampler(const NoiseModel &model);

    /**
     * Multinomial shots from the memoised exact distribution
     * (evolved on a miss); bit-identical to sampling a fresh
     * exactDistribution() with the same RNG state.
     */
    core::Distribution sample(const circuits::RoutedCircuit &routed,
                              int measured_qubits, int shots,
                              common::Rng &rng) override;

    /**
     * The exact measurement distribution (before shot sampling),
     * marginalised onto the measured logical qubits; always a cold
     * evolution, exposed so tests can compare backends without shot
     * noise.
     */
    core::Distribution exactDistribution(
        const circuits::RoutedCircuit &routed,
        int measured_qubits) const;

    /** Entries, hits and misses of the process-wide memo. */
    static CacheStats cacheStats();

    /** Drop every memoised distribution and reset the counters. */
    static void clearCache();

  private:
    NoiseModel model_;
};

} // namespace hammer::noise

#endif // HAMMER_NOISE_EXACT_SAMPLER_HPP
