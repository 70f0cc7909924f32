/**
 * @file
 * Monte-Carlo Pauli-trajectory noisy execution.
 *
 * Each trajectory is one noise realisation of the circuit: random
 * Pauli errors injected after gates (probability p1q / p2q per
 * touched qubit) and readout flips applied to the sampled bits.  This
 * is the faithful stochastic unravelling of a Pauli noise channel —
 * the same physics qulacs/Qiskit-Aer density-matrix noise models
 * describe — and is the reference backend for circuits small enough
 * to afford it.
 *
 * Execution goes through the checkpointed replay engine
 * (noise::ReplayEngine): the clean circuit is simulated once per
 * sample() call, zero-error trajectories reuse the final clean state,
 * and noisy trajectories replay only from the checkpoint preceding
 * their first injected error.  Every trajectory is bit-identical to
 * the historical simulate-every-trajectory-from-scratch engine run on
 * the same RNG stream.
 */

#ifndef HAMMER_NOISE_TRAJECTORY_SAMPLER_HPP
#define HAMMER_NOISE_TRAJECTORY_SAMPLER_HPP

#include "noise/noise_model.hpp"
#include "noise/replay.hpp"
#include "noise/sampler.hpp"
#include "sim/circuit.hpp"

namespace hammer::noise {

/**
 * Trajectory-based noisy sampler.
 */
class TrajectorySampler : public NoisySampler
{
  public:
    /**
     * @param model Noise parameters.
     * @param trajectories Number of independent noise realisations;
     *        the shot budget is spread evenly across them.
     * @param options Checkpoint memory budget (never changes results).
     */
    explicit TrajectorySampler(const NoiseModel &model,
                               int trajectories = 250,
                               const ReplayOptions &options = {});

    /**
     * Parallel trajectory fan-out.
     *
     * Every trajectory runs off its own forked RNG stream
     * (master.fork(t)), so its output is a pure function of the
     * caller RNG state and t.  Each trajectory is one work item on
     * the shared pool: it draws its error placements, samples the
     * shared clean state when none fired, and otherwise replays from
     * its checkpoint (ReplayEngine::replay).  Per-item results merge
     * through commutative integer counts, so the histogram is
     * bit-identical for every thread count.
     */
    core::Distribution sample(const circuits::RoutedCircuit &routed,
                              int measured_qubits, int shots,
                              common::Rng &rng,
                              int threads = 0) override;

    /**
     * Build one noisy realisation of @p circuit: a copy with random
     * Pauli-error gates inserted after each gate.  The replay engine
     * consumes @p rng identically (ReplayEngine::drawErrors); this
     * explicit-circuit form is kept for tests and diagnostics.
     */
    sim::Circuit noisyInstance(const sim::Circuit &circuit,
                               common::Rng &rng) const;

    /** Replay work accounting accumulated across sample() calls. */
    const ReplayStats &replayStats() const { return stats_; }

    /** Zero the accumulated replay statistics. */
    void resetReplayStats() { stats_ = {}; }

  private:
    NoiseModel model_;
    int trajectories_;
    ReplayOptions options_;
    ReplayStats stats_;
};

} // namespace hammer::noise

#endif // HAMMER_NOISE_TRAJECTORY_SAMPLER_HPP
