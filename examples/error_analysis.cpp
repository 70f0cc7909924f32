/**
 * @file
 * Domain example 3: using the analysis API to characterise a
 * device's error structure — the Section 3 / Section 7 methodology
 * as a library workflow.
 *
 * Runs mirror benchmarks of increasing depth through api::Pipeline
 * (workload spec "mirror:<n>:<depth>", trajectory backend),
 * measures entanglement entropy, fidelity, EHD and the Hamming
 * spectrum, and prints the correlations — the diagnostics a
 * practitioner would use to decide whether HAMMER will help on their
 * hardware.
 */

#include <cstdio>
#include <iostream>
#include <optional>

#include "api/api.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/ehd.hpp"
#include "core/spectrum.hpp"
#include "sim/entropy.hpp"
#include "sim/simulator.hpp"

int
main()
{
    using namespace hammer;
    const int n = 8;

    const api::Pipeline pipeline;
    common::Rng seed_rng(23);

    // One pipeline run per depth: the workload table draws the random
    // mirror circuit, the trajectory backend executes it, and the
    // scoring stage computes EHD against the known all-zero answer.
    auto run_depth = [&](int depth) {
        api::ExperimentSpec spec;
        spec.workload = "mirror:" + std::to_string(n) + ":" +
                        std::to_string(depth);
        spec.backend = "trajectory";
        spec.backendSpec.machine = "machineB";
        spec.backendSpec.trajectories = api::smokeCount(60, 12);
        spec.backendSpec.shots = api::smokeShots(3000);
        spec.backendSpec.seed = seed_rng();
        spec.mitigation = "none";
        return pipeline.run(spec);
    };

    std::puts("mirror-benchmark device characterisation (n = 8)");
    common::Table table({"depth", "entropy", "fidelity", "EHD",
                         "EHD/uniform"});
    std::vector<double> depths, ehds, fidelities;
    std::optional<api::Result> deepest;
    for (int depth : {2, 4, 8, 12, 16, 20, 24}) {
        auto result = run_depth(depth);
        const double entropy = sim::entanglementEntropy(
            sim::runCircuit(*result.workload->entanglingHalf));
        const double fidelity = result.raw.probability(0);

        depths.push_back(depth);
        ehds.push_back(result.ehdRaw);
        fidelities.push_back(fidelity);
        table.addRow({common::Table::fmt(
                          static_cast<long long>(depth)),
                      common::Table::fmt(entropy, 3),
                      common::Table::fmt(fidelity, 3),
                      common::Table::fmt(result.ehdRaw, 3),
                      common::Table::fmt(
                          result.ehdRaw / core::uniformModelEhd(n),
                          3)});
        deepest = std::move(result);
    }
    table.print(std::cout);

    std::printf("\nspearman(depth, EHD)    = %+.3f "
                "(structure decays with depth)\n",
                common::spearman(depths, ehds));
    std::printf("spearman(fidelity, EHD) = %+.3f "
                "(strong negative, paper Fig. 11)\n",
                common::spearman(fidelities, ehds));

    // Spectrum of the deepest circuit: where does the error mass sit?
    const auto spectrum = core::hammingSpectrum(deepest->raw, {0});
    std::puts("\nHamming spectrum at the deepest depth:");
    for (std::size_t d = 0; d < spectrum.binTotal.size(); ++d) {
        if (spectrum.binCount[d] == 0)
            continue;
        std::printf("  bin %zu: %.4f over %d outcomes\n", d,
                    spectrum.binTotal[d], spectrum.binCount[d]);
    }
    std::puts("\nif the low bins dominate, HAMMER will help on this "
              "device.");
    return 0;
}
