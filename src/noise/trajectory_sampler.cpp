#include "noise/trajectory_sampler.hpp"

#include <cstdint>
#include <vector>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "noise/readout.hpp"

namespace hammer::noise {

using common::Bits;
using common::require;
using common::Rng;
using core::Distribution;
using sim::Circuit;
using sim::Gate;
using sim::GateKind;

TrajectorySampler::TrajectorySampler(const NoiseModel &model,
                                     int trajectories,
                                     const ReplayOptions &options)
    : model_(model), trajectories_(trajectories), options_(options)
{
    require(trajectories >= 1,
            "TrajectorySampler: need at least one trajectory");
}

Circuit
TrajectorySampler::noisyInstance(const Circuit &circuit, Rng &rng) const
{
    Circuit noisy(circuit.numQubits());
    const GateKind paulis[] = {GateKind::X, GateKind::Y, GateKind::Z};

    for (const Gate &g : circuit.gates()) {
        noisy.append(g);
        if (g.isTwoQubit()) {
            // Two-qubit depolarising channel: with probability p2q
            // draw one of the 15 non-identity two-qubit Paulis
            // uniformly.  9 of the 15 have errors on both qubits,
            // which is what produces the *correlated* multi-bit
            // flips the paper observes becoming dominant outcomes
            // (Section 4.2).
            if (model_.p2q > 0.0 && rng.bernoulli(model_.p2q)) {
                const auto pick =
                    static_cast<int>(rng.uniformInt(15)) + 1;
                const int first = pick / 4;   // 0..3 (I,X,Y,Z)
                const int second = pick % 4;
                if (first != 0)
                    noisy.append({paulis[first - 1], g.q0});
                if (second != 0)
                    noisy.append({paulis[second - 1], g.q1});
            }
        } else {
            // Single-qubit depolarising channel.
            if (model_.p1q > 0.0 && rng.bernoulli(model_.p1q))
                noisy.append({paulis[rng.uniformInt(3)], g.q0});
        }
    }
    return noisy;
}

namespace {

/**
 * Run one trajectory through the engine: draw error placements, take
 * the zero-error fast path or a checkpointed replay, sample shots,
 * push them through readout noise and histogram the logical bits.
 *
 * RNG consumption is identical to the historical
 * noisyInstance-then-simulate engine, so trajectory results are
 * bit-compatible with it.
 */
void
runTrajectory(const ReplayEngine &engine,
              const circuits::RoutedCircuit &routed,
              const NoiseModel &model, Bits mask, int quota, Rng &rng,
              core::CountAccumulator &counts, ReplayStats &stats)
{
    const int n = routed.circuit.numQubits();
    const std::vector<ErrorEvent> events = engine.drawErrors(rng);

    ++stats.trajectories;
    stats.gatesFull += engine.numGates() + events.size();

    std::vector<Bits> raw;
    if (events.empty()) {
        ++stats.zeroError;
        raw = engine.cleanState().sampleShots(rng, quota,
                                              engine.cleanNorm());
    } else {
        stats.gatesReplayed +=
            (engine.numGates() - engine.replayStart(events)) +
            events.size();
        raw = engine.replay(events).sampleShots(rng, quota);
    }

    for (Bits physical : raw) {
        physical = applyReadoutError(physical, n, model, rng);
        const Bits logical = routed.toLogical(physical);
        counts.add(logical & mask);
    }
}

/** Validate a request and return the mask of its measured bits. */
Bits
measuredMask(const circuits::RoutedCircuit &routed, int measured_qubits,
             int shots)
{
    require(measured_qubits >= 1 &&
                measured_qubits <= routed.circuit.numQubits(),
            "TrajectorySampler: bad measured qubit count");
    require(shots >= 1, "TrajectorySampler: need at least one shot");
    return measured_qubits == 64 ? ~Bits{0}
                                 : (Bits{1} << measured_qubits) - 1;
}

/**
 * Shots per trajectory: the budget spread evenly, earlier
 * trajectories absorbing the remainder so the total is exactly
 * @p shots (a trajectory whose quota is 0 is skipped).
 */
std::vector<int>
shotQuotas(int shots, int trajectories)
{
    std::vector<int> quotas(static_cast<std::size_t>(trajectories));
    int assigned = 0;
    for (int t = 0; t < trajectories; ++t) {
        quotas[static_cast<std::size_t>(t)] =
            (shots - assigned) / (trajectories - t);
        assigned += quotas[static_cast<std::size_t>(t)];
    }
    return quotas;
}

} // namespace

Distribution
TrajectorySampler::sample(const circuits::RoutedCircuit &routed,
                          int measured_qubits, int shots, Rng &rng,
                          int threads)
{
    const Bits mask = measuredMask(routed, measured_qubits, shots);
    const std::vector<int> quotas = shotQuotas(shots, trajectories_);

    // One draw from the caller's generator seeds the whole batch;
    // trajectory t then runs off master.fork(t), making its output a
    // pure function of (caller RNG state, t) — independent of thread
    // count and scheduling order.
    const Rng master = rng.split();

    // The replay engine is immutable after construction: every
    // worker reads the same checkpoints and clean state.
    const ReplayEngine engine(routed.circuit, model_, options_);

    // One work item per trajectory on the shared pool (no per-call
    // thread spawning).  Counts and stats are integer sums, so the
    // merged histogram is the same for any partition over slots.
    const int workers = common::ThreadPool::resolveThreadCount(
        threads, quotas.size());
    std::vector<core::CountAccumulator> partials(
        static_cast<std::size_t>(workers));
    std::vector<ReplayStats> slotStats(
        static_cast<std::size_t>(workers));
    common::ThreadPool::run(
        workers, quotas.size(), [&](std::size_t t, int slot) {
            if (quotas[t] == 0)
                return;
            Rng stream = master.fork(static_cast<std::uint64_t>(t));
            const auto s = static_cast<std::size_t>(slot);
            runTrajectory(engine, routed, model_, mask, quotas[t],
                          stream, partials[s], slotStats[s]);
        });

    ReplayStats stats;
    stats.gatesReplayed += engine.numGates(); // the one clean pass
    for (const ReplayStats &slot : slotStats)
        stats.merge(slot);
    stats_.merge(stats);

    const core::CountAccumulator merged =
        core::CountAccumulator::treeReduce(partials);
    return merged.toDistribution(measured_qubits);
}

} // namespace hammer::noise
