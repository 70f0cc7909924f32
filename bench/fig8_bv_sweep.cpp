/**
 * @file
 * Fig. 8: HAMMER improvement in PST and IST over a large sweep of
 * Bernstein-Vazirani circuits (paper: 250 circuits, 5-16 qubits,
 * three IBM machines; gmean PST gain 1.38x, gmean IST gain 1.74x,
 * PST gains up to 2x, IST gains up to 5x).
 *
 * Also prints the Fig. 8(a) single-circuit example: a BV-10 whose
 * key is not the most frequent outcome until HAMMER is applied.
 */

#include <cstdio>
#include <iostream>

#include "api/api.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/hammer.hpp"
#include "metrics/metrics.hpp"
#include "noise/channel_sampler.hpp"
#include "support/report.hpp"

int
main()
{
    using namespace hammer;
    using common::Table;

    std::puts("== Fig 8(a): BV-10 example (key 1010101010) ==");
    bench::BenchReport report("fig8_bv_sweep");
    common::Rng rng(0xF198);
    const common::Bits example_key = 0b1010101010;
    const auto example = api::makeBvWorkload(10, example_key,
                                               "machineB");
    // Include a correlated burst so a specific incorrect outcome is
    // prominent, as in the paper's example histogram.
    noise::ChannelParams example_channel;
    example_channel.burstPattern = 0b0000001000;
    example_channel.burstProbability = 0.15;
    noise::ChannelSampler example_sampler(
        noise::machinePreset("machineB").scaled(2.0), example_channel);
    const auto example_noisy = example_sampler.sample(
        example.routed, 10, api::smokeShots(16384), rng);
    const auto example_fixed = core::reconstruct(example_noisy);
    std::printf("PST baseline %.3f -> HAMMER %.3f\n",
                metrics::pst(example_noisy, {example_key}),
                metrics::pst(example_fixed, {example_key}));
    std::printf("IST baseline %.3f -> HAMMER %.3f "
                "(paper: 0.4 -> ~1.0)\n\n",
                metrics::ist(example_noisy, {example_key}),
                metrics::ist(example_fixed, {example_key}));

    std::puts("== Fig 8(b): PST/IST improvement over the BV sweep ==");
    const std::vector<int> sizes = api::smokeSizes(
        {5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
    const std::vector<std::string> machines{"machineA", "machineB",
                                            "machineC"};
    const auto workload = api::makeBvSweep(
        sizes, api::smokeCount(12, 3), machines, rng);

    std::vector<double> pst_gains, ist_gains;
    int pst_improved = 0;
    for (const auto &instance : workload) {
        // Scale noise so small circuits are not trivially clean
        // while large ones stay near the paper's PST range.
        const double scale =
            instance.measuredQubits <= 8 ? 1.5 : 1.0;
        const auto model =
            noise::machinePreset(instance.machine).scaled(scale);
        auto shot_rng = rng.split();
        const auto noisy = noise::ChannelSampler(model).sample(
            instance.routed, instance.measuredQubits,
            api::smokeShots(8192), shot_rng);
        const auto fixed = core::reconstruct(noisy);

        const double pst0 = metrics::pst(noisy, {instance.key});
        const double pst1 = metrics::pst(fixed, {instance.key});
        const double ist0 = metrics::ist(noisy, {instance.key});
        const double ist1 = metrics::ist(fixed, {instance.key});
        if (pst0 > 0.0 && ist0 > 0.0 && std::isfinite(ist0) &&
            std::isfinite(ist1)) {
            pst_gains.push_back(pst1 / pst0);
            ist_gains.push_back(ist1 / ist0);
            if (pst1 > pst0)
                ++pst_improved;
        }
    }

    report.metric("gmean_pst_gain", common::geomean(pst_gains));
    report.metric("gmean_ist_gain", common::geomean(ist_gains));
    Table table({"metric", "gmean_gain", "max_gain", "min_gain",
                 "paper_gmean"});
    table.addRow({"PST", Table::fmt(common::geomean(pst_gains), 3),
                  Table::fmt(common::maximum(pst_gains), 2),
                  Table::fmt(common::minimum(pst_gains), 2), "1.38"});
    table.addRow({"IST", Table::fmt(common::geomean(ist_gains), 3),
                  Table::fmt(common::maximum(ist_gains), 2),
                  Table::fmt(common::minimum(ist_gains), 2), "1.74"});
    table.print(std::cout);
    std::printf("\ncircuits evaluated: %zu; PST improved on %d "
                "(%.0f%%)\n",
                pst_gains.size(), pst_improved,
                100.0 * pst_improved /
                    static_cast<double>(pst_gains.size()));
    return 0;
}
