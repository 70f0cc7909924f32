#include "plan/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/compiled.hpp"

namespace hammer::plan {

namespace {

constexpr double kNs = 1e-9;

// The coefficient table: hand measurements on the reference AVX2 CI
// host.  The same constants price every host and kernel tier, so a
// plan is a pure function of its spec.

// Per-amplitude-row kernel costs, nanoseconds.
constexpr double kDense1qRowNs = 1.3;
constexpr double kDiagRowNs = 0.8;
constexpr double kPermRowNs = 0.7;
constexpr double kTwoqRowNs = 1.6;

/** Fixed per-gate dispatch cost in dense1q-row equivalents. */
constexpr double kDispatchOverheadRows = 512.0;
/** One in-place Pauli injection, in permutation-row passes. */
constexpr double kInjectionWeight = 4.0 / 3.0;

/** Checkpoint store/copy cost per amplitude row, ns. */
constexpr double kCheckpointRowNs = 0.9;
/** Per-shot sampling cost (CDF walk + readout + histogram), ns. */
constexpr double kShotNs = 55.0;
/** Channel backend: per shot-gate analytic flip draw, ns. */
constexpr double kChannelFlipNs = 2.6;
/** Exact backend: per density-matrix element per gate, ns. */
constexpr double kDensityRowNs = 2.2;
/** Fixed per-plan overhead (compile, engine set-up), ns. */
constexpr double kPlanOverheadNs = 60000.0;

/** The trajectory backend's checkpoint budget (noise::ReplayOptions). */
constexpr double kCheckpointBudgetBytes = 64.0 * 1024.0 * 1024.0;

/** Group index helper. */
constexpr std::size_t
idx(CostGroup g)
{
    return static_cast<std::size_t>(g);
}

void
finalize(PlanCost &cost)
{
    cost.seconds = 0.0;
    for (const double g : cost.groups)
        cost.seconds += g;
}

/** Fold the shared per-shot sampling terms into @p cost. */
void
addSampling(PlanCost &cost, const PlanFeatures &f, double cdfBuilds)
{
    cost.groups[idx(CostGroup::Shots)] +=
        (static_cast<double>(f.shots) +
         0.25 * cdfBuilds * static_cast<double>(f.rows())) *
        kShotNs * kNs;
}

/** One fused pass over the statevector, split by kernel class. */
void
addFusedPass(PlanCost &cost, const PlanFeatures &f, double passes)
{
    const double rows = static_cast<double>(f.rows());
    const double scale = passes * rows * kNs;
    cost.groups[idx(CostGroup::Dense1q)] +=
        static_cast<double>(f.dense1q) * kDense1qRowNs * scale;
    cost.groups[idx(CostGroup::Diag)] +=
        static_cast<double>(f.diag) * kDiagRowNs * scale;
    cost.groups[idx(CostGroup::Perm)] +=
        static_cast<double>(f.perm) * kPermRowNs * scale;
    cost.groups[idx(CostGroup::Twoq)] +=
        static_cast<double>(f.twoq) * kTwoqRowNs * scale;
}

/** Fixed per-gate dispatch cost for @p ops gate applications. */
void
addDispatch(PlanCost &cost, double ops)
{
    cost.groups[idx(CostGroup::Dispatch)] +=
        ops * kDispatchOverheadRows * kDense1qRowNs * kNs;
}

PlanCost
channelCost(const PlanFeatures &f)
{
    PlanCost cost;
    // One ideal fused simulation...
    addFusedPass(cost, f, 1.0);
    addDispatch(cost, static_cast<double>(f.dense1q + f.diag +
                                          f.perm + f.twoq));
    // ...then analytic per-gate flip draws for every shot.
    cost.groups[idx(CostGroup::Flips)] +=
        static_cast<double>(f.shots) *
        static_cast<double>(f.sourceGates) * kChannelFlipNs * kNs;
    addSampling(cost, f, 1.0);
    cost.groups[idx(CostGroup::Overhead)] += kPlanOverheadNs * kNs;
    finalize(cost);
    return cost;
}

PlanCost
trajectoryCost(const PlanFeatures &f)
{
    PlanCost cost;
    const double rows = static_cast<double>(f.rows());
    const double gates = static_cast<double>(f.sourceGates);
    const double g2q = static_cast<double>(f.source2q);
    const double g1q = gates - g2q;

    // Checkpoint spacing from the memory budget (16 bytes/row).
    const double ckBytes = rows * 16.0;
    const double maxCk = std::floor(kCheckpointBudgetBytes / ckBytes);
    const double ckCount = std::min(maxCk, gates);
    const double interval =
        ckCount >= 1.0 ? std::max(1.0, gates / ckCount) : gates;

    // A trajectory with at least one error replays from the
    // checkpoint preceding its first error: expected suffix is half
    // the stream plus half a checkpoint stride of rounding.
    const double suffix =
        std::min(gates, 0.5 * gates + 0.5 * interval);
    const double noisy = static_cast<double>(f.trajectories) *
        (1.0 - f.zeroErrorFraction);
    const double frac = gates > 0.0 ? suffix / gates : 0.0;

    // The replay stream is unfused 1q/2q gates: one clean pass plus
    // the expected replayed suffixes.
    const double passes = (1.0 + noisy * frac) * rows * kNs;
    cost.groups[idx(CostGroup::Dense1q)] += g1q * kDense1qRowNs * passes;
    cost.groups[idx(CostGroup::Twoq)] += g2q * kTwoqRowNs * passes;

    // Every replayed gate pays the fixed dispatch cost.
    addDispatch(cost, gates + noisy * suffix);

    // In-place Pauli injections.
    cost.groups[idx(CostGroup::Injection)] +=
        static_cast<double>(f.trajectories) * f.expectedErrors *
        kInjectionWeight * rows * kPermRowNs * kNs;

    // Checkpoint stores during the clean pass + one copy per replay.
    cost.groups[idx(CostGroup::Checkpoint)] +=
        (ckCount + noisy) * rows * kCheckpointRowNs * kNs;

    addSampling(cost, f, static_cast<double>(f.trajectories));
    cost.groups[idx(CostGroup::Overhead)] += 2.0 * kPlanOverheadNs * kNs;
    finalize(cost);
    return cost;
}

PlanCost
exactCost(const PlanFeatures &f)
{
    PlanCost cost;
    const double rows = static_cast<double>(f.rows());
    // Density-matrix evolution, priced cold: rows^2 elements touched
    // per gate (gate + depolarising channel folded into the
    // coefficient).
    cost.groups[idx(CostGroup::Density)] +=
        static_cast<double>(f.sourceGates) * rows * rows *
        kDensityRowNs * kNs;
    cost.groups[idx(CostGroup::Overhead)] += kPlanOverheadNs * kNs;
    addSampling(cost, f, 1.0);
    finalize(cost);
    return cost;
}

} // namespace

const char *
costGroupName(CostGroup group)
{
    switch (group) {
    case CostGroup::Dense1q: return "dense1q_row_ns";
    case CostGroup::Diag: return "diag_row_ns";
    case CostGroup::Perm: return "perm_row_ns";
    case CostGroup::Twoq: return "twoq_row_ns";
    case CostGroup::Dispatch: return "dispatch_overhead_rows";
    case CostGroup::Injection: return "injection_weight";
    case CostGroup::Checkpoint: return "checkpoint_row_ns";
    case CostGroup::Shots: return "shot_ns";
    case CostGroup::Flips: return "channel_flip_ns";
    case CostGroup::Density: return "density_row_ns";
    case CostGroup::Overhead: return "plan_overhead_ns";
    }
    return "unknown";
}

PlanFeatures
extractFeatures(const sim::Circuit &circuit,
                const noise::NoiseModel &model, int shots,
                int trajectories)
{
    PlanFeatures f;
    f.qubits = circuit.numQubits();
    f.shots = shots;
    f.trajectories = trajectories;

    const sim::CompiledCircuit compiled =
        sim::CompiledCircuit::compile(circuit, {});
    for (const sim::CompiledOp &op : compiled.ops()) {
        switch (op.kind) {
        case sim::KernelKind::Mat1q: f.dense1q += 1; break;
        case sim::KernelKind::Diag:
        case sim::KernelKind::Phase:
        case sim::KernelKind::CZ: f.diag += 1; break;
        case sim::KernelKind::PauliX:
        case sim::KernelKind::PauliY:
        case sim::KernelKind::Swap: f.perm += 1; break;
        case sim::KernelKind::CX: f.twoq += 1; break;
        }
    }

    // Every gate of a kind adds the same term, so it is computed once.
    const double log1q = std::log1p(-std::min(model.p1q, 1.0 - 1e-12));
    const double log2q = std::log1p(-std::min(model.p2q, 1.0 - 1e-12));
    double logZero = 0.0;
    for (const sim::Gate &g : circuit.gates()) {
        f.sourceGates += 1;
        if (g.isTwoQubit()) {
            f.source2q += 1;
            f.expectedErrors += model.p2q;
            logZero += log2q;
        } else {
            f.expectedErrors += model.p1q;
            logZero += log1q;
        }
    }
    f.zeroErrorFraction = std::exp(logZero);
    return f;
}

PlanFeatures
approximateFeatures(int qubits, std::uint64_t gates1q,
                    std::uint64_t gates2q,
                    const noise::NoiseModel &model, int shots,
                    int trajectories)
{
    PlanFeatures f;
    f.qubits = qubits;
    f.shots = shots;
    f.trajectories = trajectories;
    // Assume fusion halves the 1q stream and the usual CX/CZ split.
    f.dense1q = (gates1q + 1) / 2;
    f.twoq = (gates2q + 1) / 2;
    f.diag = gates2q - f.twoq;
    f.sourceGates = gates1q + gates2q;
    f.source2q = gates2q;
    f.expectedErrors = static_cast<double>(gates1q) * model.p1q +
        static_cast<double>(gates2q) * model.p2q;
    f.zeroErrorFraction = std::exp(-f.expectedErrors);
    return f;
}

PlanCost
estimateCost(const PlanFeatures &features, const PlanChoice &choice)
{
    if (choice.backend == "trajectory")
        return trajectoryCost(features);
    if (choice.backend == "exact")
        return exactCost(features);
    // Unknown backends cost like the channel plan: their jobs fail
    // when they run, and admission still needs a finite estimate.
    return channelCost(features);
}

std::vector<RankedPlan>
rankPlans(const PlanFeatures &features)
{
    std::vector<RankedPlan> ranked;
    ranked.reserve(3);
    const auto add = [&](const char *backend) {
        PlanChoice choice{backend};
        const PlanCost cost = estimateCost(features, choice);
        ranked.push_back({std::move(choice), cost});
    };
    add("channel");
    add("trajectory");
    // The density-matrix backend hard-requires <= 10 qubits.
    if (features.qubits <= 10)
        add("exact");

    std::sort(ranked.begin(), ranked.end(),
              [](const RankedPlan &a, const RankedPlan &b) {
                  if (a.cost.seconds != b.cost.seconds)
                      return a.cost.seconds < b.cost.seconds;
                  return a.choice.backend < b.choice.backend;
              });
    return ranked;
}

} // namespace hammer::plan
