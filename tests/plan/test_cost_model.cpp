/**
 * @file
 * hammer::plan unit tests: cost-function purity and monotonicity,
 * deterministic plan ranking and the least-squares calibration fit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "plan/cost_model.hpp"

namespace {

using hammer::plan::CalibrationSample;
using hammer::plan::CalibrationTable;
using hammer::plan::Calibrator;
using hammer::plan::defaultCalibrationTable;
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
    const CalibrationTable table = defaultCalibrationTable();
    for (const char *backend : {"channel", "trajectory", "exact"}) {
        PlanChoice choice;
        choice.backend = backend;
        const PlanCost a = estimateCost(f, choice, table);
        const PlanCost b = estimateCost(f, choice, table);
        EXPECT_EQ(a.seconds, b.seconds) << backend;
        for (std::size_t g = 0; g < kCostGroups; ++g)
            EXPECT_EQ(a.groups[g], b.groups[g]) << backend;
    }
}

TEST(CostModel, GroupsSumToTotal)
{
    const PlanFeatures f = baseFeatures();
    const CalibrationTable table = defaultCalibrationTable();
    for (const char *backend : {"channel", "trajectory", "exact"}) {
        PlanChoice choice;
        choice.backend = backend;
        const PlanCost cost = estimateCost(f, choice, table);
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
    const CalibrationTable table = defaultCalibrationTable();
    for (const char *backend : {"channel", "trajectory"}) {
        PlanChoice choice;
        choice.backend = backend;
        const double baseline =
            estimateCost(base, choice, table).seconds;

        PlanFeatures moreShots = base;
        moreShots.shots *= 4;
        EXPECT_GE(estimateCost(moreShots, choice, table).seconds,
                  baseline)
            << backend << ": more shots got cheaper";

        PlanFeatures moreTraj = base;
        moreTraj.trajectories *= 4;
        EXPECT_GE(estimateCost(moreTraj, choice, table).seconds,
                  baseline)
            << backend << ": more trajectories got cheaper";

        PlanFeatures moreGates = base;
        moreGates.dense1q += 50;
        moreGates.twoq += 50;
        moreGates.sourceGates += 100;
        EXPECT_GE(estimateCost(moreGates, choice, table).seconds,
                  baseline)
            << backend << ": more gates got cheaper";

        PlanFeatures moreQubits = base;
        moreQubits.qubits += 2;
        EXPECT_GE(estimateCost(moreQubits, choice, table).seconds,
                  baseline)
            << backend << ": more qubits got cheaper";
    }
}

TEST(CostModel, NarrowKernelTiersCostMore)
{
    const CalibrationTable table = defaultCalibrationTable();
    PlanChoice choice;
    choice.backend = "channel";
    PlanFeatures wide = baseFeatures();
    wide.kernelLanes = 4;
    PlanFeatures narrow = baseFeatures();
    narrow.kernelLanes = 1;
    EXPECT_GT(estimateCost(narrow, choice, table).seconds,
              estimateCost(wide, choice, table).seconds);
}

TEST(CostModel, RankingIsDeterministicForAFixedTable)
{
    const PlanFeatures f = baseFeatures();
    const CalibrationTable table = defaultCalibrationTable();
    const std::vector<RankedPlan> a = rankPlans(f, table);
    const std::vector<RankedPlan> b = rankPlans(f, table);
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
    const CalibrationTable table = defaultCalibrationTable();
    PlanFeatures f = baseFeatures();
    for (const int qubits : {8, 14}) {
        f.qubits = qubits;
        std::vector<std::string> backends;
        for (const RankedPlan &plan : rankPlans(f, table))
            backends.push_back(plan.choice.backend);
        std::sort(backends.begin(), backends.end());
        const std::vector<std::string> want = qubits <= 10
            ? std::vector<std::string>{"channel", "exact", "trajectory"}
            : std::vector<std::string>{"channel", "trajectory"};
        EXPECT_EQ(backends, want) << qubits << " qubits";
    }
}

TEST(Calibrator, RecoversRescaledCoefficients)
{
    // Ground truth: the default table with a few coefficients
    // rescaled.  Synthetic measurements are exact predictions under
    // the truth, so a correct fit must out-predict the seed.
    CalibrationTable truth = defaultCalibrationTable();
    truth.dense1qRowNs *= 2.0;
    truth.twoqRowNs *= 1.5;
    truth.shotNs *= 0.5;
    truth.channelFlipNs *= 3.0;

    Calibrator calibrator;
    std::vector<CalibrationSample> samples;
    for (int qubits : {4, 6, 8, 10, 12}) {
        for (int shots : {1024, 8192}) {
            for (const char *backend : {"channel", "trajectory"}) {
                CalibrationSample s;
                s.features = hammer::plan::approximateFeatures(
                    qubits, 3 * qubits + 5,
                    2 * qubits,
                    hammer::noise::NoiseModel{}, shots,
                    100 + 10 * qubits);
                s.choice.backend = backend;
                s.measuredSeconds =
                    estimateCost(s.features, s.choice, truth).seconds;
                calibrator.addSample(s);
                samples.push_back(s);
            }
        }
    }

    const CalibrationTable seed = defaultCalibrationTable();
    const CalibrationTable fitted = calibrator.fit(seed);
    EXPECT_EQ(fitted.version, seed.version + 1);

    double seedErr = 0.0;
    double fitErr = 0.0;
    for (const CalibrationSample &s : samples) {
        const double p0 =
            estimateCost(s.features, s.choice, seed).seconds;
        const double p1 =
            estimateCost(s.features, s.choice, fitted).seconds;
        seedErr += (p0 - s.measuredSeconds) * (p0 - s.measuredSeconds);
        fitErr += (p1 - s.measuredSeconds) * (p1 - s.measuredSeconds);
    }
    EXPECT_LT(fitErr, seedErr)
        << "fit must improve on the seed table";
    EXPECT_LT(std::sqrt(fitErr / samples.size()),
              0.25 * std::sqrt(seedErr / samples.size()))
        << "fit should recover most of the rescaling";
}

TEST(Calibrator, ScalesAreClampedAgainstWildTelemetry)
{
    Calibrator calibrator;
    CalibrationSample s;
    s.features = baseFeatures();
    s.choice.backend = "channel";
    // A measurement 10^6 x the prediction: the clamp keeps every
    // coefficient within [0.05, 20] x its seed value.
    s.measuredSeconds =
        estimateCost(s.features, s.choice, defaultCalibrationTable())
            .seconds *
        1e6;
    calibrator.addSample(s);

    const CalibrationTable seed = defaultCalibrationTable();
    const CalibrationTable fitted = calibrator.fit(seed);
    EXPECT_LE(fitted.dense1qRowNs, 20.0 * seed.dense1qRowNs + 1e-9);
    EXPECT_LE(fitted.shotNs, 20.0 * seed.shotNs + 1e-9);
    EXPECT_GE(fitted.dense1qRowNs, 0.05 * seed.dense1qRowNs - 1e-9);
}

TEST(Calibrator, FitWithNoSamplesKeepsTheSeed)
{
    const Calibrator calibrator;
    const CalibrationTable seed = defaultCalibrationTable();
    const CalibrationTable fitted = calibrator.fit(seed);
    EXPECT_EQ(fitted.dense1qRowNs, seed.dense1qRowNs);
    EXPECT_EQ(fitted.shotNs, seed.shotNs);
    EXPECT_EQ(fitted.dispatchOverheadRows,
              seed.dispatchOverheadRows);
}
