#include "noise/exact_sampler.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "noise/distribution_memo.hpp"
#include "noise/readout.hpp"
#include "sim/density_matrix.hpp"

namespace hammer::noise {

using common::Bits;
using common::require;
using common::Rng;
using core::Distribution;

ExactSampler::ExactSampler(const NoiseModel &model)
    : model_(model)
{
    require(model.p1q <= 0.75 && model.p2q <= 15.0 / 16.0,
            "ExactSampler: depolarising rates out of channel range");
}

Distribution
ExactSampler::exactDistribution(const circuits::RoutedCircuit &routed,
                                int measured_qubits) const
{
    const int n = routed.circuit.numQubits();
    require(n <= 10, "ExactSampler: density matrix limited to 10 "
                     "qubits");
    require(measured_qubits >= 1 && measured_qubits <= n,
            "ExactSampler: bad measured qubit count");

    sim::DensityMatrix rho(n);
    for (const sim::Gate &g : routed.circuit.gates()) {
        rho.applyGate(g);
        if (g.isTwoQubit()) {
            if (model_.p2q > 0.0)
                rho.applyDepolarizing2q(g.q0, g.q1, model_.p2q);
        } else if (model_.p1q > 0.0) {
            rho.applyDepolarizing1q(g.q0, model_.p1q);
        }
    }

    // Physical distribution -> logical order -> marginalise the
    // unmeasured qubits.  Accumulated flat: collect the (logical
    // outcome, probability) pairs, stable-sort by outcome and
    // run-length sum — the stable sort preserves the ascending-x
    // fold order a sequential accumulation would use.
    const auto physical = rho.probabilities();
    const Bits mask = (Bits{1} << measured_qubits) - 1;
    std::vector<core::Entry> folded;
    folded.reserve(physical.size());
    for (std::size_t x = 0; x < physical.size(); ++x) {
        if (physical[x] > 0.0)
            folded.push_back({routed.toLogical(x) & mask, physical[x]});
    }
    Distribution logical = Distribution::fromSorted(
        measured_qubits, core::collapseEntries(std::move(folded)));
    logical.normalize();

    // Exact readout channel on the measured bits.
    if (model_.readout01 > 0.0 || model_.readout10 > 0.0)
        return applyReadoutChannel(logical, model_, 1e-10);
    return logical;
}

Distribution
ExactSampler::sample(const circuits::RoutedCircuit &routed,
                     int measured_qubits, int shots, Rng &rng)
{
    require(shots >= 1, "ExactSampler: need at least one shot");
    const std::shared_ptr<const Distribution> exact =
        DistributionMemo::shared().exact(
            routed, measured_qubits, model_,
            [&] { return exactDistribution(routed, measured_qubits); });

    std::vector<double> weights;
    weights.reserve(exact->support());
    for (const core::Entry &e : exact->entries())
        weights.push_back(e.probability);

    core::CountAccumulator counts;
    counts.reserve(static_cast<std::size_t>(shots));
    for (int s = 0; s < shots; ++s) {
        const std::size_t pick = rng.discrete(weights);
        counts.add(exact->entries()[pick].outcome);
    }
    return counts.toDistribution(measured_qubits);
}

} // namespace hammer::noise
