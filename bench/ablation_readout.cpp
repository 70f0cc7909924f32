/**
 * @file
 * Ablation A2: HAMMER vs (and composed with) the other
 * post-processing baselines of the paper's Sections 6.4 / 8 —
 * tensored readout-error mitigation (the Google-baseline correction)
 * and the Ensemble-of-Diverse-Mappings (EDM) scheme of ref [42].
 */

#include <cstdio>
#include <iostream>

#include "api/api.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/hammer.hpp"
#include "metrics/metrics.hpp"
#include "mitigation/ensemble.hpp"
#include "mitigation/readout_mitigation.hpp"
#include "noise/channel_sampler.hpp"
#include "support/report.hpp"

int
main()
{
    using namespace hammer;
    std::puts("== Ablation: HAMMER vs readout mitigation vs EDM "
              "(BV workload, readout-heavy machineC) ==");

    bench::BenchReport report("ablation_readout");
    common::Rng rng(0xAB1B);
    const auto workload = api::makeBvSweep(
        api::smokeSizes({6, 8, 10, 12}), api::smokeCount(8, 2),
        {"machineC"}, rng);

    std::vector<double> pst_raw, pst_ro, pst_ham, pst_ro_ham;
    std::vector<double> pst_edm, pst_edm_ham;
    for (const auto &instance : workload) {
        const auto model =
            noise::machinePreset(instance.machine).scaled(2.0);
        noise::ChannelSampler sampler(model);
        auto shot_rng = rng.split();
        const auto noisy = sampler.sample(
            instance.routed, instance.measuredQubits,
            api::smokeShots(8192), shot_rng);

        const auto ro = mitigation::mitigateReadout(noisy, model);
        const auto ham = core::reconstruct(noisy);
        const auto ro_ham = core::reconstruct(ro);

        // EDM: same program, three diverse mappings, same budget.
        const auto coupling = circuits::CouplingMap::ring(
            instance.measuredQubits + 1);
        auto edm_rng = rng.split();
        const auto edm = mitigation::ensembleSample(
            instance.logical, coupling, instance.measuredQubits, sampler,
            api::smokeShots(8192), edm_rng, {3});
        const auto edm_ham = core::reconstruct(edm);

        pst_raw.push_back(metrics::pst(noisy, {instance.key}));
        pst_ro.push_back(metrics::pst(ro, {instance.key}));
        pst_ham.push_back(metrics::pst(ham, {instance.key}));
        pst_ro_ham.push_back(metrics::pst(ro_ham, {instance.key}));
        pst_edm.push_back(metrics::pst(edm, {instance.key}));
        pst_edm_ham.push_back(metrics::pst(edm_ham, {instance.key}));
    }

    common::Table table({"pipeline", "mean_PST", "gain_vs_raw"});
    const double raw = common::mean(pst_raw);
    auto add = [&](const char *name, const std::vector<double> &xs) {
        table.addRow({name, common::Table::fmt(common::mean(xs), 4),
                      common::Table::fmt(common::mean(xs) / raw, 3)});
    };
    report.metric("mean_pst_raw", common::mean(pst_raw));
    report.metric("mean_pst_hammer", common::mean(pst_ham));
    report.metric("mean_pst_readout_hammer", common::mean(pst_ro_ham));
    add("raw (baseline)", pst_raw);
    add("readout mitigation only", pst_ro);
    add("EDM (3 diverse mappings)", pst_edm);
    add("HAMMER only", pst_ham);
    add("readout mitigation + HAMMER", pst_ro_ham);
    add("EDM + HAMMER", pst_edm_ham);
    table.print(std::cout);

    std::puts("\nexpected: HAMMER composes with both baselines — it "
              "is orthogonal to readout correction and to diverse "
              "mappings (paper Section 8)");
    return 0;
}
