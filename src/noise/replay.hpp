/**
 * @file
 * Checkpointed trajectory replay.
 *
 * The Monte-Carlo trajectory backend used to re-simulate the full
 * circuit from |0...0> for every noise realisation.  The replay
 * engine instead simulates the *clean* circuit once, stores
 * statevector checkpoints every K gates (K chosen from a memory
 * budget), and serves each trajectory by:
 *
 *  - drawing the trajectory's Pauli-error placements up front (RNG
 *    draw-for-draw compatible with TrajectorySampler::noisyInstance,
 *    so trajectory t remains a pure function of the caller RNG
 *    state);
 *  - reusing the final clean state outright when no error fired (the
 *    common case at realistic p1q/p2q — zero gates simulated);
 *  - otherwise copying the last checkpoint preceding the first error
 *    and replaying only the suffix, injecting errors as in-place
 *    X/Y/Z kernels instead of building a fresh Circuit.
 *
 * Replayed amplitudes are bit-identical to a from-scratch simulation
 * of the equivalent noisy circuit: the engine executes the same
 * unfused per-gate kernel stream either way, checkpoints included
 * (see tests/noise/test_replay_determinism.cpp).
 */

#ifndef HAMMER_NOISE_REPLAY_HPP
#define HAMMER_NOISE_REPLAY_HPP

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "noise/noise_model.hpp"
#include "sim/circuit.hpp"
#include "sim/compiled.hpp"
#include "sim/statevector.hpp"

namespace hammer::noise {

/** One injected Pauli error: applied right after gate @p gateIndex. */
struct ErrorEvent
{
    std::uint32_t gateIndex;
    sim::GateKind pauli; ///< X, Y or Z.
    int qubit;
};

/** Replay engine configuration. */
struct ReplayOptions
{
    /**
     * Memory budget for checkpoint statevectors, per engine (i.e.
     * per sample() call).  The checkpoint interval K is the smallest
     * gate stride whose checkpoint count fits the budget; a budget
     * too small for even one checkpoint degrades gracefully to
     * replay-from-scratch.  Never changes results.
     */
    std::size_t checkpointBudgetBytes = std::size_t{64} << 20;
};

/** Work accounting for the replay engine (gate applications). */
struct ReplayStats
{
    std::uint64_t trajectories = 0;
    std::uint64_t zeroError = 0;     ///< Served by the clean state.
    std::uint64_t gatesFull = 0;     ///< From-scratch engine would run.
    std::uint64_t gatesReplayed = 0; ///< Actually run (incl. clean
                                     ///< pass + injected Paulis).

    /** Fraction of trajectories served without simulating a gate. */
    double hitRate() const
    {
        return trajectories == 0
            ? 0.0
            : static_cast<double>(zeroError) /
                  static_cast<double>(trajectories);
    }

    /** Executed share of the gate work a full engine would do. */
    double replayedFraction() const
    {
        return gatesFull == 0
            ? 0.0
            : static_cast<double>(gatesReplayed) /
                  static_cast<double>(gatesFull);
    }

    void merge(const ReplayStats &other)
    {
        trajectories += other.trajectories;
        zeroError += other.zeroError;
        gatesFull += other.gatesFull;
        gatesReplayed += other.gatesReplayed;
    }
};

/**
 * Per-circuit replay state: unfused compiled ops, checkpoints, final
 * clean state.  Immutable after construction, so one engine can serve
 * any number of concurrent trajectory workers.
 */
class ReplayEngine
{
  public:
    ReplayEngine(const sim::Circuit &circuit, const NoiseModel &model,
                 const ReplayOptions &options = {});

    /**
     * Draw one trajectory's error placements.
     *
     * Consumes @p rng draw-for-draw like
     * TrajectorySampler::noisyInstance (one Bernoulli per gate when
     * the rate is nonzero, one uniform when it fires), so the two
     * are interchangeable in any RNG stream.
     */
    std::vector<ErrorEvent> drawErrors(common::Rng &rng) const;

    /** Final state of the clean circuit (zero-error fast path). */
    const sim::StateVector &cleanState() const { return final_; }

    /** normSquared() of cleanState(), accumulated once. */
    double cleanNorm() const { return finalNorm_; }

    /**
     * First gate index the trajectory must simulate: the position of
     * the checkpoint preceding the first injected error (numGates()
     * when @p events is empty — nothing to simulate).
     */
    std::size_t replayStart(
        const std::vector<ErrorEvent> &events) const;

    /**
     * Simulate one trajectory: copy the checkpoint at replayStart()
     * and replay the remaining gates, injecting @p events in place.
     *
     * @pre events is non-empty and ordered by gateIndex (as
     *      drawErrors returns it).
     */
    sim::StateVector replay(
        const std::vector<ErrorEvent> &events) const;

    std::size_t numGates() const { return ops_.ops().size(); }
    std::size_t checkpointInterval() const { return interval_; }
    std::size_t checkpointCount() const { return checkpoints_.size(); }

  private:
    NoiseModel model_;
    sim::CompiledCircuit ops_; ///< Unfused: op i == source gate i.
    std::size_t interval_;     ///< Gates between checkpoints.
    /** checkpoints_[k] = state after the first (k+1)*interval_ gates. */
    std::vector<sim::StateVector> checkpoints_;
    sim::StateVector final_;
    double finalNorm_;
};

} // namespace hammer::noise

#endif // HAMMER_NOISE_REPLAY_HPP
