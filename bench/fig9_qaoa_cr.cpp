/**
 * @file
 * Fig. 9: Cost-Ratio S-curves for QAOA max-cut, baseline vs HAMMER.
 *
 * (a) 3-regular instances (paper: CR 0.08-0.4 baseline, HAMMER up to
 *     2.4x better, consistent improvement across the S-curve).
 * (b) cumulative-probability view of one 3-regular QAOA-10 instance
 *     (paper: probability of optimal cuts rises 12% -> 19.5%).
 * (c)/(d) the same for grid instances (higher CR overall thanks to
 *     SWAP-free routing).
 */

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "api/api.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/hammer.hpp"
#include "noise/channel_sampler.hpp"
#include "qaoa/cost.hpp"
#include "graph/generators.hpp"
#include "support/report.hpp"

namespace {

using namespace hammer;

struct CrPoint
{
    double baseline;
    double hammer;
};

std::vector<CrPoint>
evaluate(const std::vector<api::Workload> &workload,
         const noise::NoiseModel &model, common::Rng &rng)
{
    std::vector<CrPoint> points;
    for (const auto &instance : workload) {
        auto shot_rng = rng.split();
        const auto noisy = noise::ChannelSampler(model).sample(
            instance.routed, instance.graph.numVertices(),
            api::smokeShots(8192), shot_rng);
        const auto fixed = core::reconstruct(noisy);
        points.push_back(
            {qaoa::costRatio(noisy, instance.graph, instance.minCost),
             qaoa::costRatio(fixed, instance.graph, instance.minCost)});
    }
    std::sort(points.begin(), points.end(),
              [](const CrPoint &a, const CrPoint &b) {
                  return a.baseline < b.baseline;
              });
    return points;
}

void
printSCurve(const char *title, const std::vector<CrPoint> &points)
{
    std::printf("-- %s --\n", title);
    common::Table table({"instance", "CR_baseline", "CR_hammer",
                         "gain"});
    const std::size_t stride = std::max<std::size_t>(
        1, points.size() / 12);
    int improved = 0;
    std::vector<double> base, ham;
    for (std::size_t i = 0; i < points.size(); ++i) {
        base.push_back(points[i].baseline);
        ham.push_back(points[i].hammer);
        if (points[i].hammer > points[i].baseline)
            ++improved;
        if (i % stride == 0 || i + 1 == points.size()) {
            table.addRow(
                {common::Table::fmt(static_cast<long long>(i)),
                 common::Table::fmt(points[i].baseline, 3),
                 common::Table::fmt(points[i].hammer, 3),
                 common::Table::fmt(
                     points[i].hammer / points[i].baseline, 2)});
        }
    }
    table.print(std::cout);
    std::printf("mean CR %.3f -> %.3f; improved on %d/%zu instances\n\n",
                common::mean(base), common::mean(ham), improved,
                points.size());
}

void
printCumulative(const char *title, const api::Workload &instance,
                const noise::NoiseModel &model, common::Rng &rng)
{
    std::printf("-- %s --\n", title);
    const auto noisy = noise::ChannelSampler(model).sample(
        instance.routed, instance.graph.numVertices(),
        api::smokeShots(16384), rng);
    const auto fixed = core::reconstruct(noisy);
    common::Table table({"quality>=", "cum_prob_baseline",
                         "cum_prob_hammer"});
    for (double q : {1.0, 0.8, 0.6, 0.4, 0.2, 0.0, -0.5}) {
        table.addRow(
            {common::Table::fmt(q, 1),
             common::Table::fmt(qaoa::cumulativeProbabilityAbove(
                 noisy, instance.graph, instance.minCost, q), 4),
             common::Table::fmt(qaoa::cumulativeProbabilityAbove(
                 fixed, instance.graph, instance.minCost, q), 4)});
    }
    table.print(std::cout);
    std::printf("P(optimal cuts): %.3f -> %.3f "
                "(paper example: 0.12 -> 0.195)\n\n",
                qaoa::cumulativeProbabilityAbove(
                    noisy, instance.graph, instance.minCost, 1.0 - 1e-9),
                qaoa::cumulativeProbabilityAbove(
                    fixed, instance.graph, instance.minCost,
                    1.0 - 1e-9));
}

} // namespace

int
main()
{
    std::puts("== Fig 9: QAOA Cost Ratio, baseline vs HAMMER ==");
    bench::BenchReport report("fig9_qaoa_cr");
    common::Rng rng(0xF199);
    const auto model = noise::machinePreset("sycamore").scaled(2.0);

    const auto reg_workload = api::makeQaoa3RegSweep(
        api::smokeSizes({6, 8, 10, 12, 14, 16}), {1, 2, 3},
        api::smokeCount(4), rng);
    printSCurve("Fig 9(a): 3-regular S-curve",
                evaluate(reg_workload, model, rng));

    auto example_rng = rng.split();
    const auto example_graph = graph::kRegular(10, 3, example_rng);
    printCumulative(
        "Fig 9(b): QAOA-10 3-regular cumulative probability",
        api::makeQaoaWorkload(example_graph, 2, false, 0, 0, "3reg"),
        model, rng);

    const auto grid_workload = api::makeQaoaGridSweep(
        api::smokeShapes({{2, 3}, {2, 4}, {3, 3}, {2, 5}, {3, 4},
                            {2, 6}, {2, 7}, {4, 4}, {3, 5}, {2, 8},
                            {3, 6}, {4, 5}}),
        {1, 2, 3, 4, 5});
    printSCurve("Fig 9(c): grid S-curve",
                evaluate(grid_workload, model, rng));

    printCumulative(
        "Fig 9(d): QAOA-12 grid cumulative probability",
        api::makeQaoaWorkload(graph::grid(3, 4), 2, true, 3, 4,
                                "grid"),
        model, rng);

    std::puts("paper shape: consistent CR gains across both S-curves; "
              "grid CR > 3-regular CR at matched size");
    return 0;
}
