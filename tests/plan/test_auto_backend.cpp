/**
 * @file
 * The `auto` backend: registry integration, bit-identity with the
 * selected backend, plan choices decided by the spec alone (never by
 * the kernel tier or a cache), and the --explain-plan dump.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "api/autoplan.hpp"
#include "common/rng.hpp"
#include "noise/distribution_memo.hpp"
#include "sim/kernels.hpp"

namespace {

using hammer::api::AutoSampler;
using hammer::api::BackendRegistry;
using hammer::api::BackendSpec;
using hammer::api::estimateSpecCost;
using hammer::api::explainPlan;
using hammer::api::ExperimentSpec;
using hammer::api::Workload;
using hammer::api::WorkloadRegistry;
using hammer::core::Distribution;

bool
identical(const Distribution &a, const Distribution &b)
{
    if (a.numBits() != b.numBits() || a.support() != b.support())
        return false;
    for (std::size_t i = 0; i < a.entries().size(); ++i) {
        if (a.entries()[i].outcome != b.entries()[i].outcome ||
            a.entries()[i].probability != b.entries()[i].probability)
            return false;
    }
    return true;
}

BackendSpec
smallSpec()
{
    BackendSpec spec;
    spec.shots = 1500;
    spec.trajectories = 30;
    spec.seed = 11;
    return spec;
}

} // namespace

TEST(AutoBackend, RegisteredAlongsideTheHandPickedBackends)
{
    const BackendRegistry &registry = BackendRegistry::global();
    EXPECT_TRUE(registry.contains("auto"));
    EXPECT_EQ(registry.names().size(), 4u);
}

TEST(AutoBackend, BitIdenticalToTheSelectedBackend)
{
    for (const char *workloadSpec : {"bv:7", "qaoa:ring:6:1"}) {
        hammer::common::Rng wrng(3);
        const Workload workload =
            WorkloadRegistry::global().make(workloadSpec, wrng);
        const BackendSpec spec = smallSpec();

        AutoSampler autoSampler(spec);
        hammer::common::Rng arng(spec.seed);
        const Distribution autoDist = autoSampler.sample(
            workload.routed, workload.measuredQubits, spec.shots,
            arng, 1);
        const std::string selected =
            autoSampler.lastChoice().backend;

        auto direct = BackendRegistry::global().make(selected, spec);
        hammer::common::Rng drng(spec.seed);
        const Distribution directDist = direct->sample(
            workload.routed, workload.measuredQubits, spec.shots,
            drng, 1);
        EXPECT_TRUE(identical(autoDist, directDist))
            << workloadSpec << " via " << selected;
    }
}

TEST(AutoBackend, SpecDecidesThePlan)
{
    hammer::common::Rng wrng(3);
    // 13 physical qubits: exact is not a candidate, so the choice is
    // channel vs trajectory, and the spec's shots and trajectories
    // decide it.  Only 100 shots are sampled; the plan prices the
    // spec's budget.
    const Workload workload =
        WorkloadRegistry::global().make("bv:12", wrng);

    // Many shots, few trajectories: channel's per-shot flip draws
    // cost more than two replayed trajectories.
    BackendSpec manyShots = smallSpec();
    manyShots.shots = 100000;
    manyShots.trajectories = 2;
    AutoSampler a(manyShots);
    hammer::common::Rng rng1(manyShots.seed);
    (void)a.sample(workload.routed, workload.measuredQubits, 100,
                   rng1);
    EXPECT_EQ(a.lastChoice().backend, "trajectory");

    // Few shots, many trajectories: one ideal simulation wins.
    AutoSampler b(smallSpec());
    hammer::common::Rng rng2(smallSpec().seed);
    (void)b.sample(workload.routed, workload.measuredQubits, 100,
                   rng2);
    EXPECT_EQ(b.lastChoice().backend, "channel");
}

TEST(AutoBackend, SamePlanOnEveryKernelTier)
{
    // The cost model prices every tier alike, so a narrower SIMD
    // tier can never flip the plan; qaoa:ring:6:2 at 3150 shots sits
    // within 1% of the channel/exact boundary.
    hammer::common::Rng wrng(5);
    const Workload workload =
        WorkloadRegistry::global().make("qaoa:ring:6:2", wrng);
    BackendSpec spec;
    spec.shots = 3150;
    spec.seed = 5;

    const auto tiers = hammer::sim::supportedTiers();
    std::vector<std::string> choices;
    std::vector<Distribution> dists;
    for (const hammer::sim::KernelTier tier : tiers) {
        hammer::sim::setActiveKernels(hammer::sim::kernelsForTier(tier));
        AutoSampler sampler(spec);
        hammer::common::Rng rng(spec.seed);
        dists.push_back(sampler.sample(workload.routed,
                                       workload.measuredQubits,
                                       spec.shots, rng, 1));
        choices.push_back(sampler.lastChoice().backend);
    }
    hammer::sim::setActiveKernels(nullptr);
    for (std::size_t i = 1; i < tiers.size(); ++i) {
        const char *tier = hammer::sim::tierName(tiers[i]);
        EXPECT_EQ(choices[i], choices[0]) << tier;
        EXPECT_TRUE(identical(dists[i], dists[0])) << tier;
    }
}

TEST(AutoBackend, RankingIsDeterministic)
{
    hammer::common::Rng wrng(3);
    const Workload workload =
        WorkloadRegistry::global().make("bv:6", wrng);
    const AutoSampler sampler(smallSpec());
    const auto a = sampler.rank(workload.routed);
    const auto b = sampler.rank(workload.routed);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].choice.backend, b[i].choice.backend);
        EXPECT_EQ(a[i].cost.seconds, b[i].cost.seconds);
    }
}

TEST(AutoBackend, PlanIgnoresTheExactMemo)
{
    // auto plans from the spec alone: once the exact backend has
    // memoised a key, the ranking and the histogram are the ones a
    // cold process produces.
    hammer::noise::DistributionMemo::shared().clear();
    hammer::common::Rng wrng(3);
    const Workload workload =
        WorkloadRegistry::global().make("ghz:4", wrng);
    BackendSpec spec = smallSpec();
    spec.shots = 900;
    AutoSampler sampler(spec);

    const auto coldRanking = sampler.rank(workload.routed);
    hammer::common::Rng coldRng(spec.seed);
    const Distribution cold = sampler.sample(
        workload.routed, workload.measuredQubits, spec.shots, coldRng,
        1);
    ASSERT_EQ(sampler.lastChoice().backend, "exact");
    ASSERT_EQ(hammer::noise::DistributionMemo::shared().stats().entries, 1u);

    const auto warmRanking = sampler.rank(workload.routed);
    hammer::common::Rng warmRng(spec.seed);
    const Distribution warm = sampler.sample(
        workload.routed, workload.measuredQubits, spec.shots, warmRng,
        1);
    EXPECT_EQ(hammer::noise::DistributionMemo::shared().stats().hits, 1u);
    ASSERT_EQ(coldRanking.size(), warmRanking.size());
    for (std::size_t i = 0; i < coldRanking.size(); ++i) {
        const auto &c = coldRanking[i];
        const auto &w = warmRanking[i];
        EXPECT_EQ(c.choice.backend, w.choice.backend) << i;
        EXPECT_EQ(c.cost.seconds, w.cost.seconds) << i;
    }
    EXPECT_TRUE(identical(cold, warm));
}

TEST(Admission, SpecCostEstimateIsPositiveAndMonotoneInShots)
{
    ExperimentSpec spec;
    spec.workload = "bv:8";
    spec.backend = "channel";
    spec.backendSpec.shots = 1000;
    const double small = estimateSpecCost(spec);
    EXPECT_GT(small, 0.0);

    spec.backendSpec.shots = 64000;
    EXPECT_GE(estimateSpecCost(spec), small);

    // Never throws, whatever the workload string looks like.
    ExperimentSpec garbage;
    garbage.workload = "???";
    EXPECT_GT(estimateSpecCost(garbage), 0.0);
}

TEST(ExplainPlan, ListsRankedCandidates)
{
    ExperimentSpec spec;
    spec.workload = "bv:6";
    spec.backend = "auto";
    spec.backendSpec = smallSpec();
    const std::string text = explainPlan(spec);
    EXPECT_NE(text.find("bv:6"), std::string::npos);
    EXPECT_NE(text.find("channel"), std::string::npos);
    EXPECT_NE(text.find("trajectory"), std::string::npos);
    EXPECT_NE(text.find("->"), std::string::npos);
}
