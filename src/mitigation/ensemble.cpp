#include "mitigation/ensemble.hpp"

#include <algorithm>
#include <utility>

#include "circuits/transpiler.hpp"
#include "common/logging.hpp"

namespace hammer::mitigation {

using common::require;
using core::Distribution;

std::vector<std::vector<int>>
diverseLayouts(int num_qubits, int count)
{
    require(num_qubits >= 1, "diverseLayouts: bad width");
    require(count >= 1 && count <= num_qubits,
            "diverseLayouts: need 1 <= count <= num_qubits");

    std::vector<std::vector<int>> layouts;
    layouts.reserve(static_cast<std::size_t>(count));
    for (int k = 0; k < count; ++k) {
        // Rotation by k * n / count physical positions: mapping i
        // visits a distinct region of the device for each ensemble
        // member.
        const int shift = k * num_qubits / count;
        std::vector<int> layout(static_cast<std::size_t>(num_qubits));
        for (int l = 0; l < num_qubits; ++l)
            layout[static_cast<std::size_t>(l)] =
                (l + shift) % num_qubits;
        layouts.push_back(std::move(layout));
    }
    return layouts;
}

Distribution
ensembleSample(const sim::Circuit &circuit,
               const circuits::CouplingMap &coupling,
               int measured_qubits, noise::NoisySampler &sampler,
               int shots, common::Rng &rng,
               const EnsembleOptions &options, int threads)
{
    require(options.mappings >= 1, "ensembleSample: need >= 1 mapping");
    require(shots >= options.mappings,
            "ensembleSample: shot budget smaller than ensemble");

    const auto layouts =
        diverseLayouts(circuit.numQubits(), options.mappings);

    // Flat merge: gather every mapping's weighted entries, then one
    // stable sort + run-length sum instead of per-entry binary-search
    // insertion into the combined histogram.  The stable sort keeps
    // each outcome's contributions in mapping order, so the folded
    // sums match a sequential accumulation bit for bit.
    std::vector<core::Entry> weighted;
    int assigned = 0;
    for (int m = 0; m < options.mappings; ++m) {
        const int quota =
            (shots - assigned) / (options.mappings - m);
        assigned += quota;

        const auto routed = circuits::transpile(
            circuit, coupling, layouts[static_cast<std::size_t>(m)]);
        const Distribution dist = sampler.sample(
            routed, measured_qubits, quota, rng, threads);
        const double weight = static_cast<double>(quota) /
                              static_cast<double>(shots);
        for (const core::Entry &e : dist.entries())
            weighted.push_back({e.outcome, weight * e.probability});
    }
    Distribution combined = Distribution::fromSorted(
        measured_qubits, core::collapseEntries(std::move(weighted)));
    combined.normalize();
    return combined;
}

} // namespace hammer::mitigation
