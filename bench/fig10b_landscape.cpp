/**
 * @file
 * Fig. 10(b) (and Fig. 1(c)): the (beta, gamma) optimisation
 * landscape of a 3-regular QAOA instance, baseline vs HAMMER.
 * Paper shape: HAMMER raises the quality at every grid point and
 * sharpens the gradients that the classical optimiser follows.
 */

#include <cstdio>
#include <iostream>

#include "circuits/qaoa_circuit.hpp"
#include "common/table.hpp"
#include "core/hammer.hpp"
#include "graph/generators.hpp"
#include "noise/channel_sampler.hpp"
#include "qaoa/landscape.hpp"
#include "support/report.hpp"
#include "support/workloads.hpp"

int
main()
{
    using namespace hammer;
    std::puts("== Fig 10(b): QAOA-14 (beta, gamma) landscape, "
              "baseline vs HAMMER ==");

    bench::BenchReport report("fig10b_landscape");
    common::Rng rng(0xF10B);
    const auto g = graph::kRegular(14, 3, rng);
    const auto model = noise::machinePreset("sycamore").scaled(2.0);

    auto producer = [&](bool use_hammer) {
        return qaoa::DistributionAt(
            [&, use_hammer](double beta, double gamma) {
                circuits::QaoaParams params;
                params.gammas = {gamma};
                params.betas = {beta};
                const auto circuit = circuits::qaoaCircuit(g, params);
                const auto routed = circuits::transpile(
                    circuit,
                    circuits::CouplingMap::line(g.numVertices()));
                auto shot_rng = rng.split();
                auto dist = noise::ChannelSampler(model).sample(
                    routed, g.numVertices(), bench::smokeShots(4096),
                    shot_rng);
                return use_hammer ? core::reconstruct(dist) : dist;
            });
    };

    const int grid_points = bench::smokeCount(7, 3);
    const auto baseline = qaoa::sweepLandscape(
        g, producer(false), grid_points, -0.8, 0.8, grid_points, -1.6,
        0.0);
    const auto hammered = qaoa::sweepLandscape(
        g, producer(true), grid_points, -0.8, 0.8, grid_points, -1.6,
        0.0);

    auto print_grid = [&](const qaoa::Landscape &scape,
                          const char *title) {
        std::printf("-- %s (rows beta, cols gamma) --\n", title);
        std::vector<std::string> header{"beta\\gamma"};
        for (double gamma : scape.gammas)
            header.push_back(common::Table::fmt(gamma, 2));
        common::Table table(header);
        for (std::size_t i = 0; i < scape.betas.size(); ++i) {
            std::vector<std::string> row{
                common::Table::fmt(scape.betas[i], 2)};
            for (double cr : scape.costRatio[i])
                row.push_back(common::Table::fmt(cr, 3));
            table.addRow(row);
        }
        table.print(std::cout);
        std::printf("peak CR %.3f, mean |gradient| %.4f\n\n",
                    scape.peak(), scape.meanGradientMagnitude());
    };

    print_grid(baseline, "baseline");
    print_grid(hammered, "HAMMER");

    std::printf("peak gain: %.2fx; gradient sharpening: %.2fx "
                "(paper: higher quality everywhere, sharper "
                "gradients)\n",
                hammered.peak() / baseline.peak(),
                hammered.meanGradientMagnitude() /
                    baseline.meanGradientMagnitude());
    return 0;
}
