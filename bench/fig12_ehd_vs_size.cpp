/**
 * @file
 * Fig. 12: EHD vs circuit size for BV and QAOA families on (a) an
 * IBM-like device and (b) a Sycamore-like device.  Paper shape: EHD
 * grows with qubit count, stays well below the uniform model's n/2,
 * and BV loses structure faster than QAOA (its routed depth grows
 * super-linearly).
 */

#include <cstdio>
#include <iostream>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/ehd.hpp"
#include "graph/generators.hpp"
#include "noise/channel_sampler.hpp"
#include "support/report.hpp"
#include "support/workloads.hpp"

namespace {

using namespace hammer;

double
bvEhd(int n, const noise::NoiseModel &model, common::Rng &rng)
{
    const common::Bits key = (common::Bits{1} << n) - 1;
    const auto instance = bench::makeBvInstance(n, key, "machineA");
    auto shot_rng = rng.split();
    const auto dist = noise::ChannelSampler(model).sample(
        instance.routed, n, bench::smokeShots(4096), shot_rng);
    return core::expectedHammingDistance(dist, {key});
}

double
qaoaEhd(int n, int p, const noise::NoiseModel &model, common::Rng &rng)
{
    std::vector<double> ehds;
    for (int i = 0; i < 2; ++i) {
        const auto g = graph::kRegular(n, 3, rng);
        const auto instance = bench::makeQaoaInstance(g, p, false, 0,
                                                      0, "3reg");
        auto shot_rng = rng.split();
        const auto dist = noise::ChannelSampler(model).sample(
            instance.routed, n, bench::smokeShots(4096), shot_rng);
        ehds.push_back(core::expectedHammingDistance(
            dist, instance.correctOutcomes));
    }
    return common::mean(ehds);
}

} // namespace

int
main()
{
    std::puts("== Fig 12: EHD vs circuit size ==");
    bench::BenchReport report("fig12_ehd_vs_size");
    common::Rng rng(0xF112);

    std::puts("-- Fig 12(a): IBM-like device (machineA) --");
    const auto ibm = noise::machinePreset("machineA");
    common::Table a({"qubits", "EHD_BV(111..1)", "EHD_QAOA_p2",
                     "EHD_QAOA_p4", "uniform"});
    for (int n : bench::smokeSizes({6, 8, 10, 12, 14, 16, 18, 20})) {
        a.addRow({common::Table::fmt(static_cast<long long>(n)),
                  common::Table::fmt(bvEhd(n, ibm, rng), 3),
                  common::Table::fmt(qaoaEhd(n, 2, ibm, rng), 3),
                  common::Table::fmt(qaoaEhd(n, 4, ibm, rng), 3),
                  common::Table::fmt(core::uniformModelEhd(n), 1)});
    }
    a.print(std::cout);

    std::puts("\n-- Fig 12(b): Sycamore-like device --");
    const auto google = noise::machinePreset("sycamore");
    common::Table b({"qubits", "EHD_3Reg_p3", "EHD_Grid_p4",
                     "uniform"});
    const std::vector<std::pair<int, int>> shapes =
        bench::smokeShapes({{2, 2}, {2, 3}, {2, 4}, {2, 5}, {3, 4},
                            {2, 7}, {4, 4}, {3, 6}, {4, 5}});
    for (const auto &[rows, cols] : shapes) {
        const int n = rows * cols;
        const auto grid_instance = bench::makeQaoaInstance(
            graph::grid(rows, cols), 4, true, rows, cols, "grid");
        auto shot_rng = rng.split();
        const auto grid_dist = noise::ChannelSampler(google).sample(
            grid_instance.routed, n, bench::smokeShots(4096),
            shot_rng);
        const double grid_ehd = core::expectedHammingDistance(
            grid_dist, grid_instance.correctOutcomes);
        const double reg_ehd =
            (n >= 4 && n % 2 == 0) ? qaoaEhd(n, 3, google, rng) : -1.0;
        b.addRow({common::Table::fmt(static_cast<long long>(n)),
                  reg_ehd < 0 ? "-" : common::Table::fmt(reg_ehd, 3),
                  common::Table::fmt(grid_ehd, 3),
                  common::Table::fmt(core::uniformModelEhd(n), 1)});
    }
    b.print(std::cout);

    std::puts("\npaper shape: EHD grows with n, stays below n/2; BV "
              "(super-linear routed depth) degrades fastest");
    return 0;
}
