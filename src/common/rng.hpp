/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of the library (noise injection, shot
 * sampling, graph generation) draw from this one generator type so that
 * every experiment is reproducible from a single seed.  The engine is
 * xoshiro256** seeded through splitmix64, which is fast, has a 256-bit
 * state, and passes BigCrush.
 */

#ifndef HAMMER_COMMON_RNG_HPP
#define HAMMER_COMMON_RNG_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hammer::common {

/**
 * Deterministic random number generator (xoshiro256**).
 *
 * Satisfies the UniformRandomBitGenerator requirements so it can also be
 * plugged into <random> distributions if ever needed, but the common
 * sampling primitives used by the library are provided as members.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Smallest value produced by operator(). */
    static constexpr result_type min() { return 0; }
    /** Largest value produced by operator(). */
    static constexpr result_type max() { return ~0ull; }

    /** Next raw 64-bit output. */
    result_type operator()()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /** Uniform double in [0, 1). */
    double uniform()
    {
        // 53 high bits -> double in [0, 1).
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t uniformInt(std::uint64_t bound);

    /** Bernoulli trial with success probability @p p. */
    bool bernoulli(double p) { return uniform() < p; }

    /** Standard normal variate (Box-Muller, cached spare). */
    double normal();

    /**
     * Sample an index from an unnormalised weight vector.
     *
     * @param weights Non-negative weights; at least one must be > 0.
     * @return index i with probability weights[i] / sum(weights).
     */
    std::size_t discrete(const std::vector<double> &weights);

    /**
     * Split off an independently-seeded child generator.
     *
     * Used to give each circuit / trajectory its own stream so results
     * do not depend on evaluation order.
     */
    Rng split();

    /**
     * Derive the @p stream_id-th child stream *without* advancing this
     * generator.
     *
     * Counter-based stream derivation: the child's state is a pure
     * function of (parent state, stream_id), so forking streams
     * 0..T-1 for T work items yields the same T generators no matter
     * how many threads execute the items or in which order.  This is
     * the determinism foundation of the parallel sampling engine —
     * see noise::NoisySampler::sample().
     */
    Rng fork(std::uint64_t stream_id) const;

    /**
     * Advance the generator by 2^128 steps (the canonical xoshiro256**
     * jump polynomial).
     *
     * Calling jump() k times on copies of one generator produces k
     * non-overlapping subsequences of 2^128 draws each — an
     * alternative to fork() when provable stream disjointness
     * matters more than cheap random-access derivation.
     */
    void jump();

  private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
    double spareNormal_;
    bool hasSpare_;
};

} // namespace hammer::common

#endif // HAMMER_COMMON_RNG_HPP
