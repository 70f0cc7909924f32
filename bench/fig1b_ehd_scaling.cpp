/**
 * @file
 * Fig. 1(b): Expected Hamming Distance of QAOA (p=2) output vs qubit
 * count, against the uniform-error model.  Paper shape: EHD grows
 * with n but much more slowly than the uniform model's n/2.
 */

#include <cstdio>
#include <iostream>

#include "api/api.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/ehd.hpp"
#include "graph/generators.hpp"
#include "noise/channel_sampler.hpp"
#include "support/report.hpp"

int
main()
{
    using namespace hammer;
    std::puts("== Fig 1(b): EHD vs qubits, QAOA p=2 (vs uniform) ==");

    bench::BenchReport report("fig1b_ehd_scaling");
    common::Rng rng(0xF19B);
    const auto model = noise::machinePreset("machineA");

    common::Table table({"qubits", "EHD_qaoa_p2", "EHD_uniform"});
    bool structure_everywhere = true;
    for (int n : api::smokeSizes({6, 8, 10, 12, 14, 16, 18, 20})) {
        std::vector<double> ehds;
        for (int i = 0; i < api::smokeCount(3); ++i) {
            const auto g = graph::kRegular(n, 3, rng);
            const auto instance =
                api::makeQaoaWorkload(g, 2, false, 0, 0, "3reg");
            const auto dist = noise::ChannelSampler(model).sample(
                instance.routed, n, api::smokeShots(4096), rng);
            ehds.push_back(core::expectedHammingDistance(
                dist, instance.correctOutcomes));
        }
        const double ehd = common::mean(ehds);
        table.addRow({common::Table::fmt(static_cast<long long>(n)),
                      common::Table::fmt(ehd, 3),
                      common::Table::fmt(core::uniformModelEhd(n), 1)});
        report.metric("ehd_n" + std::to_string(n), ehd);
        if (ehd >= core::uniformModelEhd(n))
            structure_everywhere = false;
    }
    table.print(std::cout);
    std::printf("\nEHD below uniform at every size: %s "
                "(paper: always below, grows slowly)\n",
                structure_everywhere ? "yes" : "NO");
    return 0;
}
