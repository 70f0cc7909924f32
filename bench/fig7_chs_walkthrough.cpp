/**
 * @file
 * Fig. 7(a-e): the full HAMMER walkthrough on a BV-10 output —
 * probability of correct vs top-incorrect, their CHS vectors, the
 * inverted-average weights, per-bin neighbourhood scores, and the
 * final cumulative scores.
 *
 * Paper shapes reproduced:
 *  - CHS of the correct (and dominant incorrect) outcome peaks in
 *    low Hamming bins; the average outcome's CHS peaks near n/2;
 *  - weights are the inverted aggregate CHS (weight 1.0 at bin 0);
 *  - the correct outcome's *relative* probability rises sharply
 *    after reconstruction while unstructured strings collapse.
 *
 * Known discrepancy (documented in EXPERIMENTS.md): with Algorithm 1
 * exactly as published, a dominant incorrect outcome that out-weighs
 * the correct answer by ~3x cannot be fully overturned, because the
 * score seeds with P_in(x) and the inverse-aggregate-CHS weights
 * bound the neighbourhood term; we therefore report the gap closure
 * factor rather than a sign flip.
 */

#include <cstdio>
#include <iostream>

#include "api/api.hpp"
#include "common/table.hpp"
#include "core/hammer.hpp"
#include "core/spectrum.hpp"
#include "noise/channel_sampler.hpp"
#include "support/report.hpp"

int
main()
{
    using namespace hammer;
    using common::Table;
    std::puts("== Fig 7: CHS / weights / score walkthrough (BV-10) ==");

    bench::BenchReport report("fig7_chs_walkthrough");
    common::Rng rng(0xF197);
    const common::Bits key = 0b1111111111;
    const common::Bits burst_pattern = 0b0011000000;
    const auto instance = api::makeBvWorkload(10, key, "machineB");

    // Stochastic noise plus a correlated burst (paper refs [34, 42])
    // that plants the dominant two-bit-flip incorrect outcome of
    // Fig. 7(a) ("110011111"-style).
    noise::ChannelParams channel;
    channel.burstPattern = burst_pattern;
    channel.burstProbability = 0.10;
    noise::ChannelSampler sampler(
        noise::machinePreset("machineB").scaled(2.0), channel);
    const auto dist = sampler.sample(instance.routed, 10,
                                     api::smokeShots(16384), rng);

    // Identify the most frequent incorrect outcome.
    common::Bits top_incorrect = 0;
    double top_incorrect_p = -1.0;
    for (const auto &e : dist.entries()) {
        if (e.outcome != key && e.probability > top_incorrect_p) {
            top_incorrect_p = e.probability;
            top_incorrect = e.outcome;
        }
    }

    std::printf("(a) P(correct %s)       = %.4f\n",
                common::toBitstring(key, 10).c_str(),
                dist.probability(key));
    std::printf("    P(top incorrect %s) = %.4f (distance %d)\n\n",
                common::toBitstring(top_incorrect, 10).c_str(),
                top_incorrect_p,
                common::hammingDistance(key, top_incorrect));

    core::HammerStats stats;
    const auto out = core::reconstruct(dist, {}, &stats);
    const int dmax = stats.maxDistance;

    const auto chs_correct =
        core::cumulativeHammingStrength(dist, key, dmax);
    const auto chs_incorrect =
        core::cumulativeHammingStrength(dist, top_incorrect, dmax);
    // "Average of all" CHS per bin = aggregate / N.
    const double n_outcomes =
        static_cast<double>(stats.uniqueOutcomes);

    Table table({"bin", "CHS_correct", "CHS_top_incorrect",
                 "CHS_average", "weight"});
    for (int d = 0; d <= dmax; ++d) {
        const auto bin = static_cast<std::size_t>(d);
        table.addRow({Table::fmt(static_cast<long long>(d)),
                      Table::fmt(chs_correct[bin], 4),
                      Table::fmt(chs_incorrect[bin], 4),
                      Table::fmt(stats.aggregateChs[bin] / n_outcomes,
                                 5),
                      Table::fmt(stats.weights[bin], 5)});
    }
    std::puts("(b)-(c) CHS and inverted-aggregate weights "
              "(weight(bin 0) = 1 as in the paper):");
    table.print(std::cout);
    std::puts("shape check: correct CHS peaks in low bins; average "
              "CHS grows toward n/2 bins");

    std::printf("\n(d)-(e) cumulative neighbourhood scores:\n");
    std::printf("    score(correct)       = %.5f\n",
                core::neighborhoodScore(dist, key));
    std::printf("    score(top incorrect) = %.5f\n",
                core::neighborhoodScore(dist, top_incorrect));

    const double gap_before = top_incorrect_p / dist.probability(key);
    const double gap_after =
        out.probability(top_incorrect) / out.probability(key);
    std::printf("\nafter HAMMER:\n");
    std::printf("    P_out(correct)       = %.4f\n",
                out.probability(key));
    std::printf("    P_out(top incorrect) = %.4f\n",
                out.probability(top_incorrect));
    std::printf("incorrect/correct gap: %.2fx -> %.2fx; correct "
                "outcome's share grew %.1fx\n",
                gap_before, gap_after,
                out.probability(key) / dist.probability(key));
    return 0;
}
