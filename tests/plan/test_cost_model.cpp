/**
 * @file
 * hammer::plan unit tests: cost-function purity and monotonicity and
 * deterministic plan ranking.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "plan/cost_model.hpp"

namespace {

using hammer::plan::estimateCost;
using hammer::plan::kCostGroups;
using hammer::plan::PlanChoice;
using hammer::plan::PlanCost;
using hammer::plan::PlanFeatures;
using hammer::plan::rankPlans;
using hammer::plan::RankedPlan;

PlanFeatures
baseFeatures()
{
    PlanFeatures f;
    f.qubits = 8;
    f.dense1q = 12;
    f.diag = 6;
    f.perm = 3;
    f.twoq = 9;
    f.sourceGates = 40;
    f.source2q = 10;
    f.expectedErrors = 0.35;
    f.zeroErrorFraction = 0.7;
    f.shots = 4096;
    f.trajectories = 200;
    return f;
}

} // namespace

TEST(CostModel, EstimateIsPure)
{
    const PlanFeatures f = baseFeatures();
    for (const char *backend : {"channel", "trajectory", "exact"}) {
        PlanChoice choice;
        choice.backend = backend;
        const PlanCost a = estimateCost(f, choice);
        const PlanCost b = estimateCost(f, choice);
        EXPECT_EQ(a.seconds, b.seconds) << backend;
        for (std::size_t g = 0; g < kCostGroups; ++g)
            EXPECT_EQ(a.groups[g], b.groups[g]) << backend;
    }
}

TEST(CostModel, GroupsSumToTotal)
{
    const PlanFeatures f = baseFeatures();
    for (const char *backend : {"channel", "trajectory", "exact"}) {
        PlanChoice choice;
        choice.backend = backend;
        const PlanCost cost = estimateCost(f, choice);
        double sum = 0.0;
        for (std::size_t g = 0; g < kCostGroups; ++g) {
            EXPECT_GE(cost.groups[g], 0.0);
            sum += cost.groups[g];
        }
        EXPECT_NEAR(cost.seconds, sum, 1e-12 + 1e-9 * sum)
            << backend;
    }
}

TEST(CostModel, MonotoneInEveryLoadFeature)
{
    const PlanFeatures base = baseFeatures();
    for (const char *backend : {"channel", "trajectory"}) {
        PlanChoice choice;
        choice.backend = backend;
        const double baseline =
            estimateCost(base, choice).seconds;

        PlanFeatures moreShots = base;
        moreShots.shots *= 4;
        EXPECT_GE(estimateCost(moreShots, choice).seconds,
                  baseline)
            << backend << ": more shots got cheaper";

        PlanFeatures moreTraj = base;
        moreTraj.trajectories *= 4;
        EXPECT_GE(estimateCost(moreTraj, choice).seconds,
                  baseline)
            << backend << ": more trajectories got cheaper";

        PlanFeatures moreGates = base;
        moreGates.dense1q += 50;
        moreGates.twoq += 50;
        moreGates.sourceGates += 100;
        EXPECT_GE(estimateCost(moreGates, choice).seconds,
                  baseline)
            << backend << ": more gates got cheaper";

        PlanFeatures moreQubits = base;
        moreQubits.qubits += 2;
        EXPECT_GE(estimateCost(moreQubits, choice).seconds,
                  baseline)
            << backend << ": more qubits got cheaper";
    }
}

TEST(CostModel, RankingIsDeterministicForAFixedTable)
{
    const PlanFeatures f = baseFeatures();
    const std::vector<RankedPlan> a = rankPlans(f);
    const std::vector<RankedPlan> b = rankPlans(f);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].choice.backend, b[i].choice.backend);
        EXPECT_EQ(a[i].cost.seconds, b[i].cost.seconds);
    }
    // Cheapest first.
    for (std::size_t i = 1; i < a.size(); ++i)
        EXPECT_LE(a[i - 1].cost.seconds, a[i].cost.seconds);
}

TEST(CostModel, ExactPlansOnlyWhenTheDensityMatrixFits)
{
    // One plan per backend; a 14-qubit density matrix cannot fit.
    PlanFeatures f = baseFeatures();
    for (const int qubits : {8, 14}) {
        f.qubits = qubits;
        std::vector<std::string> backends;
        for (const RankedPlan &plan : rankPlans(f))
            backends.push_back(plan.choice.backend);
        std::sort(backends.begin(), backends.end());
        const std::vector<std::string> want = qubits <= 10
            ? std::vector<std::string>{"channel", "exact", "trajectory"}
            : std::vector<std::string>{"channel", "trajectory"};
        EXPECT_EQ(backends, want) << qubits << " qubits";
    }
}
