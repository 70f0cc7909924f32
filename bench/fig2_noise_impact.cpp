/**
 * @file
 * Fig. 2(b) and 2(d): impact of noise on circuit output.
 *
 * 2(b): a 3-qubit BV circuit should return "111" with certainty but
 * on noisy hardware yields incorrect outcomes like "011" / "101".
 * 2(d): a QAOA-9 output distribution whose ideal expected cost is
 * large positive collapses toward zero (the paper reports 3.75 ->
 * -0.42 for their cut-weight convention; in our Ising convention the
 * analogous collapse is C_exp moving from near C_min toward 0).
 */

#include <cstdio>
#include <iostream>

#include "circuits/qaoa_circuit.hpp"
#include "common/table.hpp"
#include "metrics/metrics.hpp"
#include "noise/channel_sampler.hpp"
#include "qaoa/cost.hpp"
#include "sim/simulator.hpp"
#include "graph/generators.hpp"
#include "support/report.hpp"
#include "support/workloads.hpp"

int
main()
{
    using namespace hammer;
    std::puts("== Fig 2(b): BV-3 ideal vs noisy output ==");

    bench::BenchReport report("fig2_noise_impact");
    common::Rng rng(0xF192);
    const auto bv = bench::makeBvInstance(3, 0b111, "machineB");
    const auto model = noise::machinePreset("machineB").scaled(6.0);
    const auto noisy = noise::ChannelSampler(model).sample(
        bv.routed, 3, bench::smokeShots(8192), rng);

    common::Table bv_table({"outcome", "ideal", "noisy"});
    for (common::Bits x = 0; x < 8; ++x) {
        bv_table.addRow({common::toBitstring(x, 3),
                         common::Table::fmt(x == 0b111 ? 1.0 : 0.0, 3),
                         common::Table::fmt(noisy.probability(x), 3)});
    }
    bv_table.print(std::cout);
    std::printf("correct outcome kept: %.3f "
                "(paper: large but < 1, errors at d=1)\n\n",
                metrics::pst(noisy, {0b111}));

    std::puts("== Fig 2(d): QAOA-9 expected cost, ideal vs noisy ==");
    const auto g = graph::kRegular(9, 2, rng); // odd ring flavour
    const auto instance = bench::makeQaoaInstance(g, 2, false, 0, 0,
                                                  "3reg");
    const auto ideal_state = sim::runCircuit(
        circuits::qaoaCircuit(g, circuits::linearRampParams(2)));
    const auto ideal = core::Distribution::fromProbabilityFn(
        9, [&](std::size_t i) { return ideal_state.probability(i); });
    const auto noisy_qaoa =
        noise::ChannelSampler(noise::machinePreset("machineB").scaled(3.0))
            .sample(instance.routed, 9, bench::smokeShots(8192), rng);

    const double e_ideal = qaoa::costExpectation(ideal, g);
    const double e_noisy = qaoa::costExpectation(noisy_qaoa, g);
    std::printf("C_min                : %.2f\n", instance.minCost);
    std::printf("E(x) ideal           : %.3f\n", e_ideal);
    std::printf("E(x) noisy           : %.3f\n", e_noisy);
    report.metric("pst_bv3", metrics::pst(noisy, {0b111}));
    report.metric("qaoa9_quality_retained", e_noisy / e_ideal);
    std::printf("quality retained     : %.1f%% "
                "(paper: large collapse toward 0)\n",
                100.0 * e_noisy / e_ideal);
    return 0;
}
