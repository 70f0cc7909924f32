/**
 * @file
 * Fig. 10(a): solution quality (CR) vs QAOA layer count p for grid
 * graphs (6-20 nodes).  Paper shape: noiseless CR rises monotonically
 * with p; the noisy baseline peaks at p=2 and then degrades; HAMMER
 * moves the peak to p=3, reclaiming algorithmic benefit.
 */

#include <cstdio>
#include <iostream>

#include "api/api.hpp"
#include "circuits/qaoa_circuit.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/hammer.hpp"
#include "noise/channel_sampler.hpp"
#include "qaoa/cost.hpp"
#include "sim/simulator.hpp"
#include "graph/generators.hpp"
#include "support/report.hpp"

int
main()
{
    using namespace hammer;
    std::puts("== Fig 10(a): CR vs layers p (grid QAOA) ==");

    bench::BenchReport report("fig10a_layers");
    common::Rng rng(0xF10A);
    // Noise high enough that depth hurts; this is the regime where
    // the paper's baseline peaks early.
    const auto model = noise::machinePreset("sycamore").scaled(1.5);
    const std::vector<std::pair<int, int>> shapes =
        api::smokeShapes({{2, 3}, {2, 4}, {3, 3}, {2, 5}, {3, 4},
                            {2, 7}, {4, 4}, {3, 6}, {4, 5}});

    common::Table table({"p", "CR_noiseless", "CR_baseline",
                         "CR_hammer"});
    std::vector<double> noiseless_curve, baseline_curve, hammer_curve;
    for (int p = 1; p <= 5; ++p) {
        std::vector<double> noiseless, baseline, hammered;
        for (const auto &[rows, cols] : shapes) {
            const auto g = graph::grid(rows, cols);
            const auto instance =
                api::makeQaoaWorkload(g, p, true, rows, cols, "grid");

            const auto ideal_state = sim::runCircuit(
                circuits::qaoaCircuit(g, circuits::linearRampParams(p)));
            const auto ideal = core::Distribution::fromProbabilityFn(
                g.numVertices(), [&](std::size_t i) {
                    return ideal_state.probability(i);
                });
            noiseless.push_back(
                qaoa::costRatio(ideal, g, instance.minCost));

            auto shot_rng = rng.split();
            const auto noisy = noise::ChannelSampler(model).sample(
                instance.routed, g.numVertices(),
                api::smokeShots(8192), shot_rng);
            baseline.push_back(
                qaoa::costRatio(noisy, g, instance.minCost));
            hammered.push_back(qaoa::costRatio(
                core::reconstruct(noisy), g, instance.minCost));
        }
        noiseless_curve.push_back(common::mean(noiseless));
        baseline_curve.push_back(common::mean(baseline));
        hammer_curve.push_back(common::mean(hammered));
        table.addRow({common::Table::fmt(static_cast<long long>(p)),
                      common::Table::fmt(noiseless_curve.back(), 3),
                      common::Table::fmt(baseline_curve.back(), 3),
                      common::Table::fmt(hammer_curve.back(), 3)});
    }
    table.print(std::cout);

    auto peak_at = [](const std::vector<double> &curve) {
        int best = 0;
        for (std::size_t i = 1; i < curve.size(); ++i) {
            if (curve[i] > curve[static_cast<std::size_t>(best)])
                best = static_cast<int>(i);
        }
        return best + 1;
    };
    report.metric("peak_p_baseline", peak_at(baseline_curve));
    report.metric("peak_p_hammer", peak_at(hammer_curve));
    std::printf("\nquality peaks: noiseless p=%d, baseline p=%d, "
                "HAMMER p=%d\n",
                peak_at(noiseless_curve), peak_at(baseline_curve),
                peak_at(hammer_curve));
    std::puts("paper shape: noiseless monotone; baseline peaks at "
              "p=2; HAMMER peaks at p=3");
    return 0;
}
