/**
 * @file
 * Domain example 2: a full variational QAOA max-cut loop on a noisy
 * machine, with HAMMER inside the loop.
 *
 * The classical optimiser minimises the expected Ising cost of the
 * measured distribution.  Noise flattens that objective; HAMMER
 * sharpens it (paper Figs. 1c / 10b), so the optimiser converges to
 * better angles and the final sampled cut is closer to optimal.
 *
 * Every objective evaluation is one api::Pipeline run over a
 * prebuilt workload (api::makeQaoaWorkload with explicit angles) —
 * the entry point for circuits a workload spec cannot describe.
 */

#include <cstdio>

#include "api/api.hpp"
#include "graph/generators.hpp"
#include "graph/maxcut.hpp"
#include "qaoa/cost.hpp"
#include "qaoa/optimizer.hpp"

namespace {

using namespace hammer;

/** One noisy objective evaluation at (beta, gamma). */
core::Distribution
execute(const graph::Graph &g, double beta, double gamma,
        bool use_hammer, common::Rng &rng)
{
    circuits::QaoaParams params;
    params.betas = {beta};
    params.gammas = {gamma};

    api::ExperimentSpec spec;
    // Skip the brute-force optimum scan: the loop only needs the
    // measured distribution, not per-run scoring.
    spec.workloadInstance = api::makeQaoaWorkload(
        g, params, false, 0, 0, "3reg", /*compute_optimum=*/false);
    spec.backend = "channel";
    spec.backendSpec.model = noise::machinePreset("sycamore").scaled(2.0);
    spec.backendSpec.shots = api::smokeShots(4096);
    spec.backendSpec.seed = rng();
    spec.mitigation = use_hammer ? "hammer" : "none";
    return api::Pipeline().run(spec).mitigated;
}

} // namespace

int
main()
{
    using namespace hammer;

    common::Rng rng(11);
    const auto g = graph::kRegular(10, 3, rng);
    const auto opt = graph::bruteForceOptimum(g);
    std::printf("max-cut instance: 10 vertices, %zu edges, "
                "C_min = %.1f\n",
                g.numEdges(), opt.minCost);

    // Variational loop: coarse grid seed, then Nelder-Mead, twice —
    // once on the raw noisy objective, once with HAMMER applied
    // before the cost is evaluated.
    auto run_loop = [&](bool use_hammer) {
        int evaluations = 0;
        const qaoa::Objective objective =
            [&](const std::vector<double> &x) {
                ++evaluations;
                const auto dist =
                    execute(g, x[0], x[1], use_hammer, rng);
                return qaoa::costExpectation(dist, g);
            };
        const auto seed = qaoa::gridSearch(
            objective, {-0.8, -1.6}, {0.8, 0.0}, 5);
        qaoa::NelderMeadOptions options;
        options.maxEvaluations = api::smokeCount(60, 10);
        const auto result = qaoa::nelderMead(objective, seed.best,
                                             options);

        // Judge the final angles by the *raw* machine output (what a
        // user would actually sample), post-processed with HAMMER
        // when enabled.
        const auto final_dist = execute(g, result.best[0],
                                        result.best[1], use_hammer,
                                        rng);
        std::printf("  %-12s beta %+6.3f gamma %+6.3f  "
                    "(%3d evals)  CR %.3f\n",
                    use_hammer ? "with HAMMER:" : "baseline:",
                    result.best[0], result.best[1], evaluations,
                    qaoa::costRatio(final_dist, g, opt.minCost));
        return final_dist;
    };

    std::puts("\nvariational optimisation (p = 1):");
    run_loop(false);
    const auto final_dist = run_loop(true);

    // Report the best cut actually sampled.
    const auto top = final_dist.topOutcome();
    std::printf("\nmost probable cut %s: cost %.1f (optimal %.1f)\n",
                common::toBitstring(top.outcome, 10).c_str(),
                graph::isingCost(g, top.outcome), opt.minCost);
    return 0;
}
