/**
 * @file
 * Fig. 1(a): output histogram of a 4-qubit Bernstein-Vazirani circuit
 * with key 1111 on noisy hardware.  Paper shape: the error-free
 * output "1111" appears with only ~40% probability and the most
 * frequent incorrect outcomes are close to it in Hamming space.
 */

#include <cstdio>
#include <iostream>

#include "common/table.hpp"
#include "core/ehd.hpp"
#include "metrics/metrics.hpp"
#include "noise/channel_sampler.hpp"
#include "support/report.hpp"
#include "support/workloads.hpp"

int
main()
{
    using namespace hammer;
    std::puts("== Fig 1(a): BV-4 output histogram (key 1111) ==");

    bench::BenchReport report("fig1a_bv4_histogram");
    common::Rng rng(0xF19A);
    const auto instance = bench::makeBvInstance(4, 0b1111, "machineB");
    // Scale the noise up so the 4-qubit circuit lands near the
    // paper's ~40% PST operating point (their hardware ran much
    // larger error rates per useful gate at this tiny size).
    const auto model =
        noise::machinePreset(instance.machine).scaled(2.5);
    const auto dist = noise::ChannelSampler(model).sample(
        instance.routed, 4, bench::smokeShots(8192), rng);

    common::Table table({"outcome", "probability", "hamming_d(key)"});
    for (const auto &entry : dist.sortedByProbability()) {
        table.addRow({common::toBitstring(entry.outcome, 4),
                      common::Table::fmt(entry.probability, 4),
                      common::Table::fmt(static_cast<long long>(
                          common::hammingDistance(entry.outcome,
                                                  0b1111)))});
    }
    table.print(std::cout);

    report.metric("pst_key_1111", metrics::pst(dist, {0b1111}));
    std::printf("\nPST(key 1111)          : %.3f (paper: ~0.40)\n",
                metrics::pst(dist, {0b1111}));
    std::printf("EHD                    : %.3f (uniform model: %.1f)\n",
                core::expectedHammingDistance(dist, {0b1111}),
                core::uniformModelEhd(4));
    std::printf("top incorrect distance : %d (paper: short distance)\n",
                common::hammingDistance(
                    dist.sortedByProbability()[1].outcome, 0b1111));
    return 0;
}
