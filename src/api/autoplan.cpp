#include "api/autoplan.hpp"

#include <cctype>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "api/pipeline.hpp"
#include "api/workload.hpp"

namespace hammer::api {

namespace {

bool
allDigits(const std::string &text)
{
    if (text.empty())
        return false;
    for (const char c : text) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false;
    }
    return true;
}

/**
 * Analytic (qubits, 1q gates, 2q gates) shape of a makeWorkload
 * spec, without building it.  Rough by design: deadline shedding
 * needs a backlog estimate at admission, not exact counts.
 */
struct WorkloadShape
{
    int qubits = 8;
    std::uint64_t gates1q = 32;
    std::uint64_t gates2q = 16;
};

WorkloadShape
approximateShape(const std::string &workload)
{
    WorkloadShape shape;
    const std::vector<std::string> tokens = splitSpec(workload);
    if (tokens.empty())
        return shape;
    const std::string &family = tokens[0];
    const auto num = [&](std::size_t i, int fallback) {
        return i < tokens.size() && allDigits(tokens[i])
            ? parsePositiveInt(tokens[i], "workload field")
            : fallback;
    };
    if (family == "bv") {
        const int n = num(1, 8);
        shape.qubits = n + 1; // n data qubits + the ancilla.
        shape.gates1q = static_cast<std::uint64_t>(2 * n + 3);
        shape.gates2q = static_cast<std::uint64_t>(n);
    } else if (family == "ghz") {
        const int n = num(1, 8);
        shape.qubits = n;
        shape.gates1q = 1;
        // Chain CXs roughly double under routing.
        shape.gates2q = static_cast<std::uint64_t>(2 * (n - 1));
    } else if (family == "qaoa") {
        // qaoa:[<family>:]<n>:<p>
        const bool named =
            tokens.size() >= 2 && !allDigits(tokens[1]);
        const int n = num(named ? 2 : 1, 8);
        const int p = num(named ? 3 : 2, 1);
        shape.qubits = n;
        shape.gates1q = static_cast<std::uint64_t>(n) *
            static_cast<std::uint64_t>(p + 2);
        // ~3n/2 edges per layer, ~2x routing overhead, 3 CX per ZZ.
        shape.gates2q = static_cast<std::uint64_t>(3 * n) *
            static_cast<std::uint64_t>(p);
    } else if (family == "mirror") {
        const int n = num(1, 8);
        const int depth = num(2, n);
        shape.qubits = n;
        shape.gates1q = static_cast<std::uint64_t>(2 * n) *
            static_cast<std::uint64_t>(depth);
        shape.gates2q = static_cast<std::uint64_t>(n) *
            static_cast<std::uint64_t>(depth);
    }
    return shape;
}

} // namespace

plan::PlanFeatures
approximateSpecFeatures(const ExperimentSpec &spec)
{
    noise::NoiseModel model;
    try {
        model = resolveNoiseModel(spec.backendSpec);
    } catch (const std::exception &) {
        // Unknown preset: the spec will be rejected at execution;
        // price it under default rates so every spec gets a cost.
    }
    if (spec.workloadInstance) {
        return plan::extractFeatures(
            spec.workloadInstance->routed.circuit, model,
            spec.backendSpec.shots, spec.backendSpec.trajectories);
    }
    const WorkloadShape shape = approximateShape(spec.workload);
    return plan::approximateFeatures(
        shape.qubits, shape.gates1q, shape.gates2q, model,
        spec.backendSpec.shots, spec.backendSpec.trajectories);
}

double
estimateSpecCost(const ExperimentSpec &spec)
{
    try {
        const plan::PlanFeatures features =
            approximateSpecFeatures(spec);
        if (spec.backend == "auto")
            return plan::rankPlans(features).front().cost.seconds;
        plan::PlanChoice choice;
        choice.backend = spec.backend;
        return plan::estimateCost(features, choice).seconds;
    } catch (const std::exception &) {
        return 1e-3; // Deterministic fallback for unpriceable specs.
    }
}

// ---------------------------------------------------------------------------
// AutoSampler
// ---------------------------------------------------------------------------

AutoSampler::AutoSampler(const BackendSpec &spec)
    : spec_(spec), model_(resolveNoiseModel(spec))
{
}

std::vector<plan::RankedPlan>
AutoSampler::rank(const circuits::RoutedCircuit &routed) const
{
    return plan::rankPlans(plan::extractFeatures(
        routed.circuit, model_, spec_.shots, spec_.trajectories));
}

core::Distribution
AutoSampler::sample(const circuits::RoutedCircuit &routed,
                    int measured_qubits, int shots, common::Rng &rng,
                    int threads)
{
    lastChoice_ = rank(routed).front().choice;
    // The RNG passes straight through, so the histogram is
    // bit-identical to running the selected backend directly.
    return makeBackend(lastChoice_.backend, spec_)
        ->sample(routed, measured_qubits, shots, rng, threads);
}

std::string
explainPlan(const ExperimentSpec &spec)
{
    common::Rng rng(spec.backendSpec.seed);
    const Workload workload = spec.workloadInstance
        ? *spec.workloadInstance
        : makeWorkload(spec.workload, rng);
    const noise::NoiseModel model =
        resolveNoiseModel(spec.backendSpec);
    const plan::PlanFeatures features = plan::extractFeatures(
        workload.routed.circuit, model, spec.backendSpec.shots,
        spec.backendSpec.trajectories);
    const auto ranked = plan::rankPlans(features);

    std::ostringstream out;
    out << "plan candidates for " << workload.spec << " on "
        << spec.backendSpec.machine << " (qubits=" << features.qubits
        << ", ops=" << features.dense1q + features.diag +
            features.perm + features.twoq
        << ", source gates=" << features.sourceGates
        << ", shots=" << features.shots
        << ", trajectories=" << features.trajectories << std::fixed
        << std::setprecision(4)
        << ", zero-error fraction=" << features.zeroErrorFraction
        << ")\n";
    out << std::setprecision(3);
    for (std::size_t i = 0; i < ranked.size(); ++i) {
        const plan::RankedPlan &r = ranked[i];
        out << (i == 0 ? "  -> " : "     ") << std::left
            << std::setw(13) << r.choice.backend << std::right
            << " predicted=" << r.cost.seconds * 1e3 << "ms";
        // The two dominant cost groups.
        std::size_t top = 0, second = 0;
        for (std::size_t g = 1; g < plan::kCostGroups; ++g) {
            if (r.cost.groups[g] > r.cost.groups[top]) {
                second = top;
                top = g;
            } else if (top == second ||
                       r.cost.groups[g] > r.cost.groups[second]) {
                second = g;
            }
        }
        out << " ("
            << plan::costGroupName(static_cast<plan::CostGroup>(top))
            << "=" << r.cost.groups[top] * 1e3 << "ms, "
            << plan::costGroupName(
                   static_cast<plan::CostGroup>(second))
            << "=" << r.cost.groups[second] * 1e3 << "ms)\n";
    }
    return out.str();
}

} // namespace hammer::api
