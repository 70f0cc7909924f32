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
 * measured qubits): sample() draws from the process-wide
 * DistributionMemo, so further shot budgets and seeds only resample.
 * The memo never changes a histogram — a hit hands back the
 * distribution a cold evolution computes.
 */

#ifndef HAMMER_NOISE_EXACT_SAMPLER_HPP
#define HAMMER_NOISE_EXACT_SAMPLER_HPP

#include "noise/noise_model.hpp"
#include "noise/sampler.hpp"

namespace hammer::noise {

/**
 * Exact mixed-state noisy sampler.
 */
class ExactSampler : public NoisySampler
{
  public:
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

  private:
    NoiseModel model_;
};

} // namespace hammer::noise

#endif // HAMMER_NOISE_EXACT_SAMPLER_HPP
