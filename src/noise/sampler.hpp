/**
 * @file
 * Common interface of the noisy execution backends.
 *
 * A sampler plays the role of the NISQ machine in the paper's
 * methodology: given a routed circuit and a shot budget, it returns
 * the noisy measurement histogram the post-processing stage (HAMMER,
 * readout mitigation, ...) consumes.
 */

#ifndef HAMMER_NOISE_SAMPLER_HPP
#define HAMMER_NOISE_SAMPLER_HPP

#include "circuits/transpiler.hpp"
#include "common/rng.hpp"
#include "core/distribution.hpp"

namespace hammer::noise {

/**
 * Abstract noisy-execution backend.
 */
class NoisySampler
{
  public:
    virtual ~NoisySampler() = default;

    /**
     * Execute @p routed for @p shots trials and histogram the
     * outcomes: the one sampling entry point of every backend.
     *
     * Backends with a parallel decomposition fan the shot budget out
     * across independent work items (noise trajectories or shot
     * chunks) executed on the shared thread pool, and merge the
     * per-worker histograms with an atomic-free tree reduction.
     *
     * Deterministic-parallelism contract: each work item draws from
     * its own counter-based RNG stream (common::Rng::fork), so for a
     * fixed @p rng state the returned distribution is bit-identical
     * for every thread count, including 1.  @p rng is advanced by
     * exactly one draw regardless of thread count, so a caller
     * interleaving sample() with other use of the generator also
     * stays reproducible.
     *
     * @param routed Routed circuit (physical qubits + final layout).
     * @param measured_qubits Number of logical qubits measured; the
     *        returned distribution is over logical qubits
     *        0..measured_qubits-1 (higher logical qubits — e.g. the
     *        BV ancilla — are traced out).
     * @param shots Number of trials.
     * @param rng Random source.
     * @param threads Worker threads; 0 selects
     *        common::ThreadPool::defaultThreadCount() (the
     *        HAMMER_THREADS environment variable, else all hardware
     *        threads).
     * @return Normalised distribution over measured_qubits-bit
     *         outcomes.
     */
    virtual core::Distribution sample(
        const circuits::RoutedCircuit &routed, int measured_qubits,
        int shots, common::Rng &rng, int threads = 0) = 0;
};

} // namespace hammer::noise

#endif // HAMMER_NOISE_SAMPLER_HPP
