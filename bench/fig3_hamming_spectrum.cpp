/**
 * @file
 * Fig. 3(b) and 3(c): Hamming spectra.
 *
 * 3(b): BV-8 (single correct outcome "11111111") — the correct
 * output dominates bin 0, the most frequent incorrect outcomes live
 * in low bins, and bin averages fall below the uniform 2^-n line by
 * bin ~4.
 * 3(c): QAOA-8 (multiple correct outcomes, min-distance binning) —
 * most incorrect mass within distance 3.
 */

#include <cstdio>
#include <iostream>

#include "common/table.hpp"
#include "core/spectrum.hpp"
#include "graph/generators.hpp"
#include "noise/channel_sampler.hpp"
#include "support/report.hpp"
#include "support/workloads.hpp"

namespace {

void
printSpectrum(const hammer::core::Distribution &dist,
              const std::vector<hammer::common::Bits> &correct)
{
    using hammer::common::Table;
    const auto spectrum = hammer::core::hammingSpectrum(dist, correct);
    const double uniform =
        hammer::core::uniformOutcomeProbability(dist.numBits());

    Table table({"bin", "total_prob", "count", "avg_prob", "max_prob",
                 "uniform"});
    for (std::size_t d = 0; d < spectrum.binTotal.size(); ++d) {
        if (spectrum.binCount[d] == 0 && d > 6)
            continue;
        table.addRow({Table::fmt(static_cast<long long>(d)),
                      Table::fmt(spectrum.binTotal[d], 4),
                      Table::fmt(static_cast<long long>(
                          spectrum.binCount[d])),
                      Table::fmt(spectrum.binAverage[d], 6),
                      Table::fmt(spectrum.binMax[d], 5),
                      Table::fmt(uniform, 6)});
    }
    table.print(std::cout);
}

} // namespace

int
main()
{
    using namespace hammer;
    bench::BenchReport report("fig3_hamming_spectrum");
    common::Rng rng(0xF193);

    std::puts("== Fig 3(b): Hamming spectrum of BV-8 (key 11111111) ==");
    const auto bv = bench::makeBvInstance(8, 0b11111111, "machineB");
    const auto bv_dist =
        noise::ChannelSampler(noise::machinePreset("machineB").scaled(2.0))
            .sample(bv.routed, 8, bench::smokeShots(16384), rng);
    printSpectrum(bv_dist, {0b11111111});

    std::puts("\n== Fig 3(c): Hamming spectrum of QAOA-8 "
              "(multiple correct outcomes) ==");
    const auto g = graph::kRegular(8, 3, rng);
    const auto qaoa = bench::makeQaoaInstance(g, 2, false, 0, 0, "3reg");
    const auto qaoa_dist =
        noise::ChannelSampler(noise::machinePreset("machineB"))
            .sample(qaoa.routed, 8, bench::smokeShots(16384), rng);
    std::printf("(instance has %zu optimal cuts)\n",
                qaoa.correctOutcomes.size());
    report.metric("bv8_pst", bv_dist.probability(0b11111111));
    printSpectrum(qaoa_dist, qaoa.correctOutcomes);
    return 0;
}
