/**
 * @file
 * Analytic local-error channel sampler.
 *
 * The fast backend for large sweeps (hundreds of circuits, up to 20+
 * qubits).  It runs the ideal simulation once per distinct circuit —
 * the clean distribution is kept in the process-wide
 * DistributionMemo, so a repeated circuit costs O(shots · log
 * support) — then models noise at the distribution level as the
 * end-of-circuit limit of depolarising Pauli errors:
 *
 *  - with probability `scramble`, the shot decoheres completely and
 *    yields a uniformly random outcome (error cascades through deep
 *    entangling circuits);
 *  - each two-qubit gate contributes *correlated* double-bit-flip
 *    events on its qubit pair (4/15 of a two-qubit depolarising
 *    event flips both qubits) — these produce the dominant
 *    multi-bit-flip incorrect outcomes the paper highlights in
 *    Section 4.2;
 *  - the remaining single-sided shares of two-qubit errors, the
 *    single-qubit gate errors, and the state-dependent readout flips
 *    act as independent per-bit flips.
 *
 * Local errors commuted to the end of the circuit are exactly what
 * produces the paper's Hamming-clustered erroneous outcomes, so this
 * backend reproduces the statistics HAMMER exploits while costing
 * one ideal simulation per circuit.  Integration tests cross-check
 * it against TrajectorySampler (which implements the same channels
 * gate-by-gate) on small circuits.
 */

#ifndef HAMMER_NOISE_CHANNEL_SAMPLER_HPP
#define HAMMER_NOISE_CHANNEL_SAMPLER_HPP

#include <vector>

#include "noise/noise_model.hpp"
#include "noise/sampler.hpp"

namespace hammer::noise {

/** Tuning constants of the analytic channel. */
struct ChannelParams
{
    /**
     * Fraction of a 1q depolarising event that flips the bit
     * (X and Y flip, Z does not).
     */
    double flipPer1q = 2.0 / 3.0;
    /**
     * Marginal per-qubit flip fraction of a 2q depolarising event
     * (the qubit's component is X or Y in 8 of the 15 Paulis).
     */
    double marginalFlipPer2q = 8.0 / 15.0;
    /**
     * Fraction of a 2q depolarising event that flips exactly one
     * given qubit (component X/Y while the partner is I/Z).
     */
    double exclusiveFlipPer2q = 4.0 / 15.0;
    /**
     * Fraction of a 2q depolarising event that flips both qubits —
     * the correlated share (both components in {X, Y}).
     */
    double correlatedFlipPer2q = 4.0 / 15.0;
    /** Scramble accumulation per two-qubit gate error. */
    double scramblePer2q = 0.35;
    /** Upper bound on the scramble probability. */
    double maxScramble = 0.75;
    /**
     * Systematic (coherent) over-rotation per two-qubit gate, in
     * radians.  Unlike stochastic errors, coherent miscalibration
     * accumulates linearly in amplitude: a qubit whose physical home
     * hosts g two-qubit gates acquires flip probability
     * sin^2(coherentPer2q * g).  This is the mechanism that makes a
     * *specific* erroneous outcome dominate the histogram — the
     * regime of the paper's Fig. 7 / Fig. 8(a) where the correct
     * answer is out-weighed by one incorrect string.  Off by
     * default; the Fig. 7/8 benches enable it.
     */
    double coherentPer2q = 0.0;
    /**
     * Correlated burst error: a fixed multi-bit flip pattern applied
     * all-or-nothing with burstProbability per shot.  Models the
     * device-specific correlated error spikes reported on IBM
     * machines (the paper's refs [34, 42]) that make one specific
     * erroneous outcome dominant — the baseline regime of the
     * paper's Fig. 7 and Fig. 8(a) where IST < 1.  The burst outcome
     * has a *thin* neighbourhood of its own (only its satellites at
     * burst * stochastic rates), which is exactly why HAMMER can
     * demote it.  The pattern flips *logical* output bits, so it
     * lands on the same outcome under every qubit mapping (a
     * diverse-mapping ensemble cannot dilute it).  Off by default.
     */
    common::Bits burstPattern = 0;
    /** Per-shot probability of the burst pattern firing. */
    double burstProbability = 0.0;
};

/** A correlated double-flip event on a pair of measured bits. */
struct CorrelatedFlip
{
    int qubitA;          ///< First measured logical bit.
    int qubitB;          ///< Second measured logical bit.
    double probability;  ///< Per-shot probability of the double flip.
};

/**
 * Channel-model noisy sampler.
 */
class ChannelSampler : public NoisySampler
{
  public:
    explicit ChannelSampler(const NoiseModel &model,
                            const ChannelParams &params = {});

    /**
     * Parallel shot fan-out: the clean distribution and channel
     * parameters are fetched once, then the shot budget is split into
     * fixed-size chunks (the chunking depends only on the shot
     * count, never on the thread count), each chunk drawing from its
     * own forked RNG stream.  Results are bit-identical for every
     * thread count.
     */
    core::Distribution sample(const circuits::RoutedCircuit &routed,
                              int measured_qubits, int shots,
                              common::Rng &rng,
                              int threads = 0) override;

    /**
     * Marginal per-logical-qubit gate-induced flip probabilities for
     * a routed circuit (before readout is folded in).  Exposed for
     * tests and the EHD scaling analysis.
     */
    std::vector<double> gateFlipProbabilities(
        const circuits::RoutedCircuit &routed) const;

    /**
     * Correlated double-flip events among the first
     * @p measured_qubits logical bits of a routed circuit.  Exposed
     * for tests.
     */
    std::vector<CorrelatedFlip> correlatedFlips(
        const circuits::RoutedCircuit &routed,
        int measured_qubits) const;

    /** Global scramble probability for a routed circuit. */
    double scrambleProbability(
        const circuits::RoutedCircuit &routed) const;

    /**
     * Per-logical-qubit flip probabilities from systematic coherent
     * over-rotation (all zero when coherentPer2q is 0).
     */
    std::vector<double> coherentFlipProbabilities(
        const circuits::RoutedCircuit &routed) const;

  private:
    /**
     * Per-measured-bit independent flip probabilities (gate singles
     * + coherent over-rotation; readout is folded in per shot).
     */
    std::vector<double> independentFlipProbabilities(
        const circuits::RoutedCircuit &routed,
        int measured_qubits) const;

    NoiseModel model_;
    ChannelParams params_;
};

} // namespace hammer::noise

#endif // HAMMER_NOISE_CHANNEL_SAMPLER_HPP
