/**
 * @file
 * Fig. 11: EHD of mirror benchmark circuits vs (a/c) entanglement
 * entropy and (b/d) fidelity, for high-depth and low-depth families.
 * Paper shape: weak Spearman correlation with entanglement entropy
 * (~0.2), strong negative correlation with fidelity; EHD stays below
 * the uniform model throughout.
 *
 * Uses the Pauli-trajectory backend so injected errors genuinely
 * propagate through the entangling structure.
 */

#include <cstdio>
#include <iostream>

#include "api/api.hpp"
#include "circuits/mirror.hpp"
#include "circuits/transpiler.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/ehd.hpp"
#include "metrics/metrics.hpp"
#include "noise/trajectory_sampler.hpp"
#include "sim/entropy.hpp"
#include "sim/simulator.hpp"
#include "support/report.hpp"

namespace {

using namespace hammer;

/**
 * Entropy study (Fig 11 a/c): hold the two-qubit gate count fixed
 * (density 1.0) and vary the entanglement through the rotation-angle
 * scale, so the noise exposure is identical across circuits and any
 * EHD/entropy correlation is genuine rather than a gate-count
 * confounder.
 */
void
runEntropyFamily(const char *title, int depth, int circuits_count,
                 common::Rng &rng)
{
    const int n = 10;
    noise::TrajectorySampler sampler(
        noise::machinePreset("machineB"), api::smokeCount(60, 10));

    circuits_count = api::smokeCount(circuits_count, 4);
    std::vector<double> entropies, ehds;
    for (int i = 0; i < circuits_count; ++i) {
        const double angle_scale = rng.uniform(0.02, 1.0);
        const auto mirror = circuits::randomMirrorCircuit(
            n, depth, 1.0, rng, angle_scale);
        entropies.push_back(sim::entanglementEntropy(
            sim::runCircuit(mirror.firstHalf)));

        auto shot_rng = rng.split();
        const auto dist = sampler.sample(
            circuits::trivialRouting(mirror.full), n,
            api::smokeShots(3000), shot_rng);
        ehds.push_back(core::expectedHammingDistance(dist, {0}));
    }

    std::printf("-- %s (%d circuits, depth %d, n=%d, fixed gate "
                "count) --\n", title, circuits_count, depth, n);
    std::printf("entropy range [%.2f, %.2f]; EHD range [%.2f, %.2f]\n",
                common::minimum(entropies), common::maximum(entropies),
                common::minimum(ehds), common::maximum(ehds));
    std::printf("spearman(EHD, entropy)  = %+.3f "
                "(paper: weak, ~0.2)\n",
                common::spearman(ehds, entropies));
    std::printf("EHD below uniform (%.1f) on all circuits: %s\n\n",
                core::uniformModelEhd(10),
                common::maximum(ehds) < core::uniformModelEhd(10)
                    ? "yes" : "NO");
}

/**
 * Fidelity study (Fig 11 b/d): vary the two-qubit density, so noise
 * exposure — and with it fidelity — spans a wide range.
 */
void
runFidelityFamily(const char *title, int depth, int circuits_count,
                  common::Rng &rng)
{
    const int n = 10;
    noise::TrajectorySampler sampler(
        noise::machinePreset("machineB"), api::smokeCount(60, 10));

    circuits_count = api::smokeCount(circuits_count, 4);
    std::vector<double> fidelities, ehds;
    for (int i = 0; i < circuits_count; ++i) {
        const double density = rng.uniform(0.05, 0.95);
        const auto mirror = circuits::randomMirrorCircuit(
            n, depth, density, rng);
        auto shot_rng = rng.split();
        const auto dist = sampler.sample(
            circuits::trivialRouting(mirror.full), n,
            api::smokeShots(3000), shot_rng);
        fidelities.push_back(dist.probability(0));
        ehds.push_back(core::expectedHammingDistance(dist, {0}));
    }

    std::printf("-- %s (%d circuits, depth %d, n=%d, varying gate "
                "count) --\n", title, circuits_count, depth, n);
    std::printf("fidelity range [%.3f, %.3f]; EHD range "
                "[%.2f, %.2f]\n",
                common::minimum(fidelities),
                common::maximum(fidelities), common::minimum(ehds),
                common::maximum(ehds));
    std::printf("spearman(EHD, fidelity) = %+.3f "
                "(paper: strong negative)\n\n",
                common::spearman(ehds, fidelities));
}

} // namespace

int
main()
{
    std::puts("== Fig 11: EHD vs entanglement entropy and fidelity "
              "(mirror circuits) ==");
    bench::BenchReport report("fig11_entanglement");
    common::Rng rng(0xF111);
    runEntropyFamily("Fig 11(a): high-depth entropy study", 25, 40,
                     rng);
    runFidelityFamily("Fig 11(b): high-depth fidelity study", 25, 40,
                      rng);
    runEntropyFamily("Fig 11(c): low-depth entropy study", 12, 40,
                     rng);
    runFidelityFamily("Fig 11(d): low-depth fidelity study", 12, 40,
                      rng);
    return 0;
}
