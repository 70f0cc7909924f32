/**
 * @file
 * Regression tests for the checkpointed trajectory-replay engine.
 *
 * Three layers of guarantees:
 *  - ReplayEngine::drawErrors is RNG draw-for-draw compatible with
 *    TrajectorySampler::noisyInstance, and replaying a trajectory
 *    from a checkpoint is bit-identical to simulating its noisy
 *    circuit from scratch;
 *  - TrajectorySampler::sample reproduces the historical
 *    build-a-circuit-per-trajectory engine bit-for-bit, trajectory t
 *    running on forked stream t in both;
 *  - sample() determinism (thread-count, checkpoint-budget and
 *    kernel-tier invariance) holds on the new paths, including the
 *    zero-error fast path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "circuits/bv.hpp"
#include "circuits/transpiler.hpp"
#include "noise/readout.hpp"
#include "noise/replay.hpp"
#include "noise/trajectory_sampler.hpp"
#include "sim/kernels.hpp"

namespace {

using hammer::common::Bits;
using hammer::common::Rng;
using hammer::core::Distribution;
using hammer::sim::Amp;
using hammer::sim::Circuit;
using hammer::sim::Gate;
using hammer::sim::GateKind;
using hammer::sim::StateVector;
using namespace hammer::circuits;
using namespace hammer::noise;

/** Assert two distributions are exactly equal, entry by entry. */
void
expectIdentical(const Distribution &a, const Distribution &b)
{
    ASSERT_EQ(a.numBits(), b.numBits());
    ASSERT_EQ(a.support(), b.support());
    for (const auto &e : a.entries())
        EXPECT_EQ(e.probability, b.probability(e.outcome))
            << "outcome " << e.outcome;
}

/** A routed test circuit with 1q chains, rotations and 2q gates. */
RoutedCircuit
testCircuit()
{
    Circuit c = bernsteinVazirani(5, 0b10110);
    c.rz(0, 0.37).rx(1, -0.8).t(2).s(3).ry(4, 1.1).cz(1, 3);
    return trivialRouting(c);
}

// ---------------------------------------------------------------------------
// drawErrors <-> noisyInstance stream compatibility
// ---------------------------------------------------------------------------

TEST(ReplayEngine, DrawErrorsMatchesNoisyInstance)
{
    const RoutedCircuit routed = testCircuit();
    const NoiseModel model{0.3, 0.4, 0.0, 0.0};
    const TrajectorySampler sampler(model, 1);
    const ReplayEngine engine(routed.circuit, model);

    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        Rng a(seed), b(seed);
        const Circuit noisy =
            sampler.noisyInstance(routed.circuit, a);
        const auto events = engine.drawErrors(b);

        // Rebuild the noisy gate stream from the event list.
        Circuit rebuilt(routed.circuit.numQubits());
        auto event = events.begin();
        const auto &gates = routed.circuit.gates();
        for (std::size_t i = 0; i < gates.size(); ++i) {
            rebuilt.append(gates[i]);
            while (event != events.end() && event->gateIndex == i) {
                rebuilt.append({event->pauli, event->qubit});
                ++event;
            }
        }
        ASSERT_EQ(rebuilt.size(), noisy.size()) << "seed " << seed;
        for (std::size_t i = 0; i < noisy.size(); ++i) {
            EXPECT_EQ(rebuilt.gates()[i].kind, noisy.gates()[i].kind);
            EXPECT_EQ(rebuilt.gates()[i].q0, noisy.gates()[i].q0);
            EXPECT_EQ(rebuilt.gates()[i].q1, noisy.gates()[i].q1);
            EXPECT_EQ(rebuilt.gates()[i].theta,
                      noisy.gates()[i].theta);
        }
        // Identical RNG consumption: both streams stay in lockstep.
        EXPECT_EQ(a(), b()) << "seed " << seed;
    }
}

// ---------------------------------------------------------------------------
// Checkpointed replay == full re-simulation
// ---------------------------------------------------------------------------

TEST(ReplayEngine, ReplayBitIdenticalToFullResimulation)
{
    const RoutedCircuit routed = testCircuit();
    const NoiseModel model{0.2, 0.3, 0.0, 0.0};

    // Tiny budgets force every checkpoint-interval shape, including
    // the degenerate replay-from-scratch engine.
    const std::size_t state_bytes =
        (std::size_t{1} << routed.circuit.numQubits()) * sizeof(Amp);
    for (const std::size_t budget :
         {std::size_t{0}, state_bytes, 3 * state_bytes,
          std::size_t{64} << 20}) {
        const ReplayEngine engine(routed.circuit, model, {budget});
        int replayed = 0;
        for (std::uint64_t seed = 100; seed < 140; ++seed) {
            Rng rng(seed);
            const auto events = engine.drawErrors(rng);
            if (events.empty())
                continue;
            ++replayed;

            // Reference: the trajectory's noisy circuit, simulated
            // from |0> gate by gate.
            StateVector full(routed.circuit.numQubits());
            auto event = events.begin();
            const auto &gates = routed.circuit.gates();
            for (std::size_t i = 0; i < gates.size(); ++i) {
                full.applyGate(gates[i]);
                while (event != events.end() &&
                       event->gateIndex == i) {
                    full.applyGate({event->pauli, event->qubit});
                    ++event;
                }
            }

            const StateVector fast = engine.replay(events);
            for (std::size_t i = 0; i < full.dimension(); ++i) {
                EXPECT_EQ(fast.amplitude(i).real(),
                          full.amplitude(i).real())
                    << "budget " << budget << " seed " << seed
                    << " index " << i;
                EXPECT_EQ(fast.amplitude(i).imag(),
                          full.amplitude(i).imag())
                    << "budget " << budget << " seed " << seed
                    << " index " << i;
            }
        }
        EXPECT_GT(replayed, 0) << "model must produce errors";
    }
}

TEST(ReplayEngine, CheckpointLayoutRespectsBudget)
{
    const RoutedCircuit routed = testCircuit();
    const NoiseModel model{0.01, 0.01, 0.0, 0.0};
    const std::size_t state_bytes =
        (std::size_t{1} << routed.circuit.numQubits()) * sizeof(Amp);

    const ReplayEngine none(routed.circuit, model, {0});
    EXPECT_EQ(none.checkpointCount(), 0u);
    EXPECT_EQ(none.numGates(), routed.circuit.size());

    const ReplayEngine three(routed.circuit, model,
                             {3 * state_bytes});
    EXPECT_LE(three.checkpointCount(), 3u);
    EXPECT_GT(three.checkpointCount(), 0u);

    const ReplayEngine big(routed.circuit, model,
                           {std::size_t{64} << 20});
    // A large budget checkpoints (at most) every gate.
    EXPECT_EQ(big.checkpointInterval(), 1u);
    EXPECT_EQ(big.checkpointCount(), routed.circuit.size() - 1);
}

// ---------------------------------------------------------------------------
// TrajectorySampler::sample == the historical engine, bit for bit
// ---------------------------------------------------------------------------

/**
 * The pre-replay engine, replicated: one noisy Circuit per
 * trajectory, full simulation from |0>, materialised-CDF sampling.
 * One draw from @p rng seeds the run; trajectory t draws from
 * master.fork(t), as TrajectorySampler::sample's work items do.
 */
Distribution
historicalSample(const TrajectorySampler &sampler,
                 const RoutedCircuit &routed, const NoiseModel &model,
                 int trajectories, int measured_qubits, int shots,
                 Rng &rng)
{
    const int n = routed.circuit.numQubits();
    const Bits mask = (Bits{1} << measured_qubits) - 1;
    const Rng master = rng.split();
    hammer::core::CountAccumulator counts;
    int assigned = 0;
    for (int t = 0; t < trajectories; ++t) {
        const int quota = (shots - assigned) / (trajectories - t);
        if (quota == 0)
            continue;
        assigned += quota;

        Rng stream = master.fork(static_cast<std::uint64_t>(t));
        const Circuit instance =
            sampler.noisyInstance(routed.circuit, stream);
        StateVector state(n);
        for (const Gate &g : instance.gates())
            state.applyGate(g);

        // Seed-style sampling: CDF array + per-shot binary search.
        std::vector<double> cdf(state.dimension());
        double acc = 0.0;
        for (std::size_t i = 0; i < state.dimension(); ++i) {
            acc += std::norm(state.amplitude(i));
            cdf[i] = acc;
        }
        // All shot uniforms are drawn before any readout draw, as
        // the historical sampleShots did.
        std::vector<Bits> raw;
        raw.reserve(static_cast<std::size_t>(quota));
        for (int s = 0; s < quota; ++s) {
            const double r = stream.uniform() * acc;
            const auto it =
                std::upper_bound(cdf.begin(), cdf.end(), r);
            raw.push_back(it == cdf.end()
                ? cdf.size() - 1
                : static_cast<std::size_t>(it - cdf.begin()));
        }
        for (Bits physical : raw) {
            physical = applyReadoutError(physical, n, model, stream);
            counts.add(routed.toLogical(physical) & mask);
        }
    }
    return counts.toDistribution(measured_qubits);
}

TEST(ReplayDeterminism, SerialSampleMatchesHistoricalEngine)
{
    const RoutedCircuit routed = testCircuit();
    for (const char *preset : {"ideal", "machineA", "machineB"}) {
        const NoiseModel model = machinePreset(preset);
        TrajectorySampler sampler(model, 40);
        Rng a(77), b(77);
        const Distribution fast = sampler.sample(routed, 5, 3000, a);
        const Distribution slow = historicalSample(
            sampler, routed, model, 40, 5, 3000, b);
        expectIdentical(fast, slow);
        EXPECT_EQ(a(), b()) << "RNG streams must stay in lockstep";
    }
}

// ---------------------------------------------------------------------------
// Thread-count and budget invariance on the new paths
// ---------------------------------------------------------------------------

TEST(ReplayDeterminism, BatchThreadCountInvariance)
{
    const RoutedCircuit routed = testCircuit();
    // ideal exercises only the zero-error fast path; the scaled
    // model makes nearly every trajectory replay.
    for (const double scale : {0.0, 1.0, 20.0}) {
        const NoiseModel model =
            machinePreset("machineA").scaled(scale);
        TrajectorySampler sampler(model, 48);
        Rng serial_rng(13);
        const Distribution serial =
            sampler.sample(routed, 5, 4000, serial_rng, 1);
        for (int threads : {2, 4}) {
            Rng rng(13);
            expectIdentical(serial, sampler.sample(routed, 5, 4000,
                                                   rng, threads));
        }
    }
}

TEST(ReplayDeterminism, CheckpointBudgetNeverChangesResults)
{
    const RoutedCircuit routed = testCircuit();
    const NoiseModel model = machinePreset("machineB").scaled(5.0);
    const std::size_t state_bytes =
        (std::size_t{1} << routed.circuit.numQubits()) * sizeof(Amp);

    TrajectorySampler reference(model, 32);
    Rng ref_rng(99);
    const Distribution expected =
        reference.sample(routed, 5, 2500, ref_rng);

    for (const std::size_t budget :
         {std::size_t{0}, state_bytes, 2 * state_bytes}) {
        TrajectorySampler sampler(model, 32, ReplayOptions{budget});
        Rng rng(99);
        expectIdentical(expected,
                        sampler.sample(routed, 5, 2500, rng));
    }
}

TEST(ReplayDeterminism, TierInvariance)
{
    // The whole noisy pipeline — clean pass, checkpoints, replay,
    // sampling — agrees bitwise across every supported ISA tier.
    const RoutedCircuit routed =
        trivialRouting(bernsteinVazirani(5, 0b10011));
    const NoiseModel loud = machinePreset("machineA").scaled(4.0);
    auto run = [&] {
        TrajectorySampler sampler(loud, 40);
        Rng rng(31);
        return sampler.sample(routed, 5, 2000, rng, 2);
    };

    hammer::sim::setActiveKernels(
        hammer::sim::kernelsForTier(hammer::sim::KernelTier::Scalar));
    const Distribution want = run();
    for (const auto tier : hammer::sim::supportedTiers()) {
        hammer::sim::setActiveKernels(hammer::sim::kernelsForTier(tier));
        const Distribution got = run();
        hammer::sim::setActiveKernels(nullptr);
        expectIdentical(want, got);
    }
    hammer::sim::setActiveKernels(nullptr);
}

TEST(ReplayDeterminism, StatsAccountForFastPathAndReplay)
{
    const RoutedCircuit routed = testCircuit();
    TrajectorySampler sampler(machinePreset("machineA"), 64);
    Rng rng(3);
    sampler.sample(routed, 5, 2000, rng);

    const ReplayStats &stats = sampler.replayStats();
    EXPECT_EQ(stats.trajectories, 64u);
    EXPECT_GT(stats.zeroError, 0u)
        << "realistic rates must produce clean trajectories";
    EXPECT_LT(stats.zeroError, stats.trajectories)
        << "some trajectories must carry errors";
    EXPECT_GT(stats.gatesFull, 0u);
    EXPECT_LT(stats.gatesReplayed, stats.gatesFull)
        << "replay must beat from-scratch simulation";
    EXPECT_GT(stats.hitRate(), 0.0);
    EXPECT_LT(stats.replayedFraction(), 1.0);

    sampler.resetReplayStats();
    EXPECT_EQ(sampler.replayStats().trajectories, 0u);
}

} // namespace
