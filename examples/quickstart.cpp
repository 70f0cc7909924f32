/**
 * @file
 * Quickstart: the experiment pipeline in one spec.
 *
 * 1. Name a workload.    ("ghz:10"   — api::makeWorkload)
 * 2. Name a backend.     ("channel"  — api::makeBackend)
 * 3. Name mitigation.    ("hammer"   — api::MitigationChain)
 * 4. Run.                (api::Pipeline — route, execute, mitigate,
 *                         score, all timed)
 */

#include <cstdio>

#include "api/api.hpp"
#include "metrics/metrics.hpp"

int
main()
{
    using namespace hammer;

    // A 10-qubit GHZ state: ideally half |0...0>, half |1...1>,
    // executed on a simulated IBM-like machine.
    api::ExperimentSpec spec;
    spec.workload = "ghz:10";
    spec.backend = "channel";
    spec.backendSpec.machine = "machineB";
    spec.backendSpec.shots = api::smokeShots(8192);
    spec.backendSpec.seed = 42;
    spec.mitigation = "hammer";

    const api::Result result = api::Pipeline().run(spec);

    std::printf("GHZ-10 on a noisy machine (%d shots)\n",
                result.shots);
    std::printf("  correct-outcome probability: %.3f -> %.3f\n",
                result.pstRaw, result.pstMitigated);
    const auto &correct = result.workload->correctOutcomes;
    std::printf("  top outcome is correct:      %s -> %s\n",
                metrics::inferredCorrectly(result.raw, correct)
                    ? "yes" : "no",
                metrics::inferredCorrectly(result.mitigated, correct)
                    ? "yes" : "no");
    std::printf("\nmost probable outcomes after HAMMER:\n%s",
                result.mitigated.toString(5).c_str());
    std::printf("\npipeline wall-clock: %.3f s (sampling %.3f s, "
                "mitigation %.3f s)\n",
                result.totalSeconds(), result.stageSeconds("sample"),
                result.stageSeconds("mitigate"));
    return 0;
}
