#include "noise/channel_sampler.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "noise/distribution_memo.hpp"

namespace hammer::noise {

using common::Bits;
using common::require;
using common::Rng;
using core::Distribution;

namespace {

/** Probability of an odd number of flips from two independent flips. */
double
combineFlips(double a, double b)
{
    return a * (1.0 - b) + b * (1.0 - a);
}

/** Physical qubit -> final resident logical qubit (or -1). */
std::vector<int>
inverseLayout(const circuits::RoutedCircuit &routed)
{
    std::vector<int> phys_to_logical(
        static_cast<std::size_t>(routed.circuit.numQubits()), -1);
    for (std::size_t l = 0; l < routed.logicalToPhysical.size(); ++l) {
        phys_to_logical[static_cast<std::size_t>(
            routed.logicalToPhysical[l])] = static_cast<int>(l);
    }
    return phys_to_logical;
}

} // namespace

ChannelSampler::ChannelSampler(const NoiseModel &model,
                               const ChannelParams &params)
    : model_(model), params_(params)
{
    require(params.flipPer1q >= 0.0 && params.flipPer1q <= 1.0 &&
            params.marginalFlipPer2q >= 0.0 &&
            params.marginalFlipPer2q <= 1.0 &&
            params.exclusiveFlipPer2q >= 0.0 &&
            params.correlatedFlipPer2q >= 0.0 &&
            params.exclusiveFlipPer2q + params.correlatedFlipPer2q
                <= 1.0,
            "ChannelParams: flip fractions must be valid "
            "probabilities");
    require(params.maxScramble >= 0.0 && params.maxScramble < 1.0,
            "ChannelParams: maxScramble must be in [0, 1)");
    require(params.coherentPer2q >= 0.0,
            "ChannelParams: coherentPer2q must be non-negative");
    require(params.burstProbability >= 0.0 &&
            params.burstProbability < 1.0,
            "ChannelParams: burstProbability must be in [0, 1)");
}

std::vector<double>
ChannelSampler::gateFlipProbabilities(
    const circuits::RoutedCircuit &routed) const
{
    const sim::GateCounts counts = routed.circuit.gateCounts();
    const std::size_t logical_count = routed.logicalToPhysical.size();

    std::vector<double> flip(logical_count, 0.0);
    for (std::size_t l = 0; l < logical_count; ++l) {
        // Attribute the physical qubit's gate activity to the logical
        // qubit that ends up living there (exact for SWAP-free
        // circuits, a faithful first-order proxy otherwise).
        const auto p = static_cast<std::size_t>(
            routed.logicalToPhysical[l]);
        const double keep1 = std::pow(
            1.0 - params_.flipPer1q * model_.p1q, counts.perQubit1q[p]);
        const double keep2 = std::pow(
            1.0 - params_.marginalFlipPer2q * model_.p2q,
            counts.perQubit2q[p]);
        flip[l] = 1.0 - keep1 * keep2;
    }
    return flip;
}

std::vector<CorrelatedFlip>
ChannelSampler::correlatedFlips(const circuits::RoutedCircuit &routed,
                                int measured_qubits) const
{
    const auto phys_to_logical = inverseLayout(routed);

    // Count 2q gates per physical pair whose *final residents* are
    // both measured logical bits.
    std::map<std::pair<int, int>, int> pair_counts;
    for (const sim::Gate &g : routed.circuit.gates()) {
        if (!g.isTwoQubit())
            continue;
        const int la = phys_to_logical[static_cast<std::size_t>(g.q0)];
        const int lb = phys_to_logical[static_cast<std::size_t>(g.q1)];
        if (la < 0 || lb < 0 || la >= measured_qubits ||
            lb >= measured_qubits) {
            continue;
        }
        ++pair_counts[{std::min(la, lb), std::max(la, lb)}];
    }

    std::vector<CorrelatedFlip> flips;
    flips.reserve(pair_counts.size());
    for (const auto &[pair, count] : pair_counts) {
        const double prob = 1.0 - std::pow(
            1.0 - params_.correlatedFlipPer2q * model_.p2q, count);
        if (prob > 0.0)
            flips.push_back({pair.first, pair.second, prob});
    }
    return flips;
}

std::vector<double>
ChannelSampler::coherentFlipProbabilities(
    const circuits::RoutedCircuit &routed) const
{
    const std::size_t logical_count = routed.logicalToPhysical.size();
    std::vector<double> flip(logical_count, 0.0);
    if (params_.coherentPer2q == 0.0)
        return flip;

    const sim::GateCounts counts = routed.circuit.gateCounts();
    for (std::size_t l = 0; l < logical_count; ++l) {
        const auto p = static_cast<std::size_t>(
            routed.logicalToPhysical[l]);
        // Coherent errors add in amplitude, so the accumulated
        // rotation angle grows linearly with the gate count.
        const double theta =
            params_.coherentPer2q * counts.perQubit2q[p];
        const double s = std::sin(theta);
        flip[l] = s * s;
    }
    return flip;
}

double
ChannelSampler::scrambleProbability(
    const circuits::RoutedCircuit &routed) const
{
    const sim::GateCounts counts = routed.circuit.gateCounts();
    const double survive = std::pow(
        1.0 - params_.scramblePer2q * model_.p2q, counts.twoQubit);
    return std::min(1.0 - survive, params_.maxScramble);
}

std::vector<double>
ChannelSampler::independentFlipProbabilities(
    const circuits::RoutedCircuit &routed, int measured_qubits) const
{
    // Independent per-bit flip probabilities.  Gates whose partner
    // bit also participates in the correlated channel contribute
    // only their single-sided (exclusive) share here; gates paired
    // with unmeasured qubits contribute their full marginal.
    const auto phys_to_logical = inverseLayout(routed);
    std::vector<int> count_1q(static_cast<std::size_t>(measured_qubits),
                              0);
    std::vector<int> count_2q_paired(
        static_cast<std::size_t>(measured_qubits), 0);
    std::vector<int> count_2q_lone(
        static_cast<std::size_t>(measured_qubits), 0);
    for (const sim::Gate &g : routed.circuit.gates()) {
        if (g.isTwoQubit()) {
            const int la =
                phys_to_logical[static_cast<std::size_t>(g.q0)];
            const int lb =
                phys_to_logical[static_cast<std::size_t>(g.q1)];
            const bool a_measured = la >= 0 && la < measured_qubits;
            const bool b_measured = lb >= 0 && lb < measured_qubits;
            if (a_measured) {
                ++(b_measured
                   ? count_2q_paired[static_cast<std::size_t>(la)]
                   : count_2q_lone[static_cast<std::size_t>(la)]);
            }
            if (b_measured) {
                ++(a_measured
                   ? count_2q_paired[static_cast<std::size_t>(lb)]
                   : count_2q_lone[static_cast<std::size_t>(lb)]);
            }
        } else {
            const int l = phys_to_logical[static_cast<std::size_t>(
                g.q0)];
            if (l >= 0 && l < measured_qubits)
                ++count_1q[static_cast<std::size_t>(l)];
        }
    }
    const auto coherent = coherentFlipProbabilities(routed);
    std::vector<double> independent_flip(
        static_cast<std::size_t>(measured_qubits), 0.0);
    for (int q = 0; q < measured_qubits; ++q) {
        const auto i = static_cast<std::size_t>(q);
        const double keep =
            std::pow(1.0 - params_.flipPer1q * model_.p1q,
                     count_1q[i]) *
            std::pow(1.0 - params_.exclusiveFlipPer2q * model_.p2q,
                     count_2q_paired[i]) *
            std::pow(1.0 - params_.marginalFlipPer2q * model_.p2q,
                     count_2q_lone[i]);
        independent_flip[i] = combineFlips(1.0 - keep, coherent[i]);
    }
    return independent_flip;
}

namespace {

/** Per-circuit channel quantities shared by every shot. */
struct ShotPlan
{
    common::Bits mask;
    double scramble;
    std::vector<CorrelatedFlip> correlated;
    /**
     * Per measured bit: the independent flip (gate singles +
     * coherent) combined with the readout flip of a measured 0, and
     * of a measured 1.
     */
    std::vector<double> flipIfZero;
    std::vector<double> flipIfOne;
};

ShotPlan
makeShotPlan(int measured_qubits, double scramble,
             std::vector<CorrelatedFlip> correlated,
             const std::vector<double> &independent_flip,
             const NoiseModel &model)
{
    ShotPlan plan{measured_qubits == 64
                      ? ~Bits{0}
                      : (Bits{1} << measured_qubits) - 1,
                  scramble, std::move(correlated), {}, {}};
    for (const double flip : independent_flip) {
        plan.flipIfZero.push_back(combineFlips(flip, model.readout01));
        plan.flipIfOne.push_back(combineFlips(flip, model.readout10));
    }
    return plan;
}

/** Push one ideal logical outcome through the noise channels. */
Bits
applyShotNoise(const ShotPlan &plan, const ChannelParams &params,
               Bits logical, int measured_qubits, Rng &rng)
{
    if (plan.scramble > 0.0 && rng.bernoulli(plan.scramble))
        return rng.uniformInt(Bits{1} << measured_qubits);
    if (params.burstProbability > 0.0 &&
        rng.bernoulli(params.burstProbability)) {
        // Device-specific correlated error burst: when it fires it
        // dominates the other channels, so the shot reports exactly
        // the ideal outcome with the burst pattern applied.  The
        // resulting spike has a thin neighbourhood of its own — the
        // property HAMMER exploits to demote it.
        return (logical & plan.mask) ^ (params.burstPattern & plan.mask);
    }
    Bits observed = logical & plan.mask;
    // Correlated double flips from two-qubit gate errors.
    for (const CorrelatedFlip &cf : plan.correlated) {
        if (rng.bernoulli(cf.probability)) {
            observed ^= Bits{1} << cf.qubitA;
            observed ^= Bits{1} << cf.qubitB;
        }
    }
    // Independent flips (gate singles + readout).
    for (int q = 0; q < measured_qubits; ++q) {
        const auto i = static_cast<std::size_t>(q);
        const double flip = ((observed >> q) & 1ull)
            ? plan.flipIfOne[i]
            : plan.flipIfZero[i];
        if (flip > 0.0 && rng.bernoulli(flip))
            observed ^= Bits{1} << q;
    }
    return observed;
}

/**
 * Draw @p shots clean outcomes and push each through the noise
 * channels into @p counts.  Every uniform is drawn, in shot order,
 * before the first noise draw: the stream StateVector::sampleShots
 * consumed when each request swept the state itself.
 */
void
drawShots(const CleanDistribution &clean, const ShotPlan &plan,
          const ChannelParams &params, int measured_qubits, int shots,
          Rng &rng, core::CountAccumulator &counts)
{
    std::vector<double> draws(static_cast<std::size_t>(shots));
    for (double &r : draws)
        r = rng.uniform() * clean.norm();
    for (const double r : draws)
        counts.add(applyShotNoise(plan, params, clean.resolve(r),
                                  measured_qubits, rng));
}

} // namespace

Distribution
ChannelSampler::sample(const circuits::RoutedCircuit &routed,
                       int measured_qubits, int shots, Rng &rng)
{
    const int n = routed.circuit.numQubits();
    require(measured_qubits >= 1 && measured_qubits <= n,
            "ChannelSampler: bad measured qubit count");
    require(shots >= 1, "ChannelSampler: need at least one shot");

    const auto clean = DistributionMemo::shared().clean(routed);
    const ShotPlan plan = makeShotPlan(
        measured_qubits, scrambleProbability(routed),
        correlatedFlips(routed, measured_qubits),
        independentFlipProbabilities(routed, measured_qubits), model_);

    core::CountAccumulator counts;
    counts.reserve(static_cast<std::size_t>(shots));
    drawShots(*clean, plan, params_, measured_qubits, shots, rng,
              counts);
    return counts.toDistribution(measured_qubits);
}

Distribution
ChannelSampler::sampleBatch(const circuits::RoutedCircuit &routed,
                            int measured_qubits, int shots, Rng &rng,
                            int threads)
{
    const int n = routed.circuit.numQubits();
    require(measured_qubits >= 1 && measured_qubits <= n,
            "ChannelSampler: bad measured qubit count");
    require(shots >= 1, "ChannelSampler: need at least one shot");

    const auto clean = DistributionMemo::shared().clean(routed);
    const ShotPlan plan = makeShotPlan(
        measured_qubits, scrambleProbability(routed),
        correlatedFlips(routed, measured_qubits),
        independentFlipProbabilities(routed, measured_qubits), model_);

    // Fixed-size chunks: the chunk schedule depends only on the shot
    // count — never the thread count — so every thread count
    // produces the same work items and (via fork) the same
    // histogram.  Small enough that a default 8192-shot call still
    // spreads across 8 workers.
    constexpr int kChunkShots = 1024;
    const int chunks = (shots + kChunkShots - 1) / kChunkShots;

    const Rng master = rng.split();

    // Resolve the request against the chunk count and run on the
    // shared pool when possible (no per-call thread spawning).
    const int workers = common::ThreadPool::resolveThreadCount(
        threads, static_cast<std::size_t>(chunks));
    std::vector<core::CountAccumulator> partials(
        static_cast<std::size_t>(workers));
    common::ThreadPool::run(
        workers, static_cast<std::size_t>(chunks),
        [&](std::size_t c, int slot) {
            const int base = static_cast<int>(c) * kChunkShots;
            const int quota = std::min(kChunkShots, shots - base);
            Rng stream = master.fork(c);
            drawShots(*clean, plan, params_, measured_qubits, quota,
                      stream, partials[static_cast<std::size_t>(slot)]);
        });

    const core::CountAccumulator merged =
        core::CountAccumulator::treeReduce(partials);
    return merged.toDistribution(measured_qubits);
}

} // namespace hammer::noise
