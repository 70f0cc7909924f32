/**
 * @file
 * Ablation study over HAMMER's design choices (DESIGN.md item A1):
 * neighbourhood radius, the filter function pi, the weight scheme,
 * and the score-combination rule, evaluated on the BV workload's
 * PST/IST gains.
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/hammer.hpp"
#include "metrics/metrics.hpp"
#include "noise/channel_sampler.hpp"
#include "support/report.hpp"
#include "support/workloads.hpp"

namespace {

using namespace hammer;

struct Variant
{
    const char *name;
    core::HammerConfig config;
};

} // namespace

int
main()
{
    std::puts("== Ablation: HAMMER design choices (BV workload) ==");
    bench::BenchReport report("ablation_hammer");
    common::Rng rng(0xAB1A);

    // Pre-sample the noisy distributions once; every variant
    // post-processes the same inputs.
    const auto workload = bench::makeBvWorkload(
        bench::smokeSizes({6, 8, 10, 12, 14}),
        bench::smokeCount(6, 2),
        {"machineA", "machineB", "machineC"}, rng);
    std::vector<core::Distribution> noisy;
    std::vector<common::Bits> keys;
    for (const auto &instance : workload) {
        const auto model =
            noise::machinePreset(instance.machine).scaled(2.0);
        auto shot_rng = rng.split();
        noisy.push_back(noise::ChannelSampler(model).sample(
            instance.routed, instance.measuredQubits,
            bench::smokeShots(8192), shot_rng));
        keys.push_back(instance.key);
    }

    std::vector<Variant> variants;
    variants.push_back({"paper default (r=n/2, filter, invCHS, mult)",
                        {}});
    core::HammerConfig radius1;
    radius1.maxDistance = 1;
    variants.push_back({"radius d<=1 only", radius1});
    core::HammerConfig radius2;
    radius2.maxDistance = 2;
    variants.push_back({"radius d<=2", radius2});
    core::HammerConfig no_filter;
    no_filter.filterLowerProbability = false;
    variants.push_back({"filter pi OFF", no_filter});
    core::HammerConfig uniform_w;
    uniform_w.weightScheme = core::WeightScheme::Uniform;
    variants.push_back({"uniform weights", uniform_w});
    core::HammerConfig binom_w;
    binom_w.weightScheme = core::WeightScheme::InverseBinomial;
    variants.push_back({"1/C(n,d) weights", binom_w});
    core::HammerConfig additive;
    additive.scoreCombine = core::ScoreCombine::Additive;
    variants.push_back({"additive combine", additive});
    // Sentinel handled below: two reconstruction passes.
    variants.push_back({"2 iterations (extension)", {}});

    common::Table table({"variant", "gmean_PST_gain", "gmean_IST_gain",
                         "improved_frac"});
    for (const auto &variant : variants) {
        std::vector<double> pst_gain, ist_gain;
        int improved = 0, counted = 0;
        for (std::size_t i = 0; i < noisy.size(); ++i) {
            const double pst0 = metrics::pst(noisy[i], {keys[i]});
            const double ist0 = metrics::ist(noisy[i], {keys[i]});
            if (pst0 <= 0.0 || ist0 <= 0.0 || !std::isfinite(ist0))
                continue;
            const bool iterated =
                std::string(variant.name).find("iterations") !=
                std::string::npos;
            const auto out = iterated
                ? core::reconstructIterative(noisy[i], 2,
                                             variant.config)
                : core::reconstruct(noisy[i], variant.config);
            const double pst1 = metrics::pst(out, {keys[i]});
            const double ist1 = metrics::ist(out, {keys[i]});
            if (!std::isfinite(ist1))
                continue;
            pst_gain.push_back(pst1 / pst0);
            ist_gain.push_back(ist1 / ist0);
            ++counted;
            if (pst1 > pst0)
                ++improved;
        }
        report.metric(std::string(variant.name) + " gmean_PST_gain",
                      common::geomean(pst_gain));
        table.addRow(
            {variant.name,
             common::Table::fmt(common::geomean(pst_gain), 3),
             common::Table::fmt(common::geomean(ist_gain), 3),
             common::Table::fmt(
                 static_cast<double>(improved) / counted, 2)});
    }
    table.print(std::cout);
    std::puts("\nexpected: the paper default is on the Pareto front; "
              "tiny radii lose large-circuit gains, disabling the "
              "filter lets spurious strings borrow strength");
    return 0;
}
