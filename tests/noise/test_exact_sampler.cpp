/**
 * @file
 * Unit tests for the exact density-matrix sampler, including the
 * cross-backend validation: the trajectory backend's histogram must
 * converge to the exact channel evolution.
 */

#include <gtest/gtest.h>

#include "circuits/bv.hpp"
#include "circuits/ghz.hpp"
#include "circuits/transpiler.hpp"
#include "metrics/metrics.hpp"
#include "noise/exact_sampler.hpp"
#include "noise/trajectory_sampler.hpp"

namespace {

using hammer::common::Bits;
using hammer::common::Rng;
using hammer::core::Distribution;
using namespace hammer::circuits;
using namespace hammer::noise;

TEST(ExactSampler, IdealModelReproducesIdealOutput)
{
    ExactSampler sampler(machinePreset("ideal"));
    const auto routed = trivialRouting(bernsteinVazirani(4, 0b1011));
    const Distribution exact = sampler.exactDistribution(routed, 4);
    EXPECT_EQ(exact.support(), 1u);
    EXPECT_NEAR(exact.probability(0b1011), 1.0, 1e-9);
}

TEST(ExactSampler, ExactDistributionIsNormalised)
{
    ExactSampler sampler(machinePreset("machineB").scaled(3.0));
    const auto routed = trivialRouting(ghz(5));
    const Distribution exact = sampler.exactDistribution(routed, 5);
    EXPECT_TRUE(exact.normalized(1e-8));
}

TEST(ExactSampler, NoiseSpreadsMassOffThePoles)
{
    ExactSampler sampler(machinePreset("machineB").scaled(3.0));
    const auto routed = trivialRouting(ghz(4));
    const Distribution exact = sampler.exactDistribution(routed, 4);
    const double poles = exact.probability(0b0000) +
                         exact.probability(0b1111);
    EXPECT_LT(poles, 1.0);
    EXPECT_GT(poles, 0.5) << "structure must survive moderate noise";
    EXPECT_GT(exact.support(), 2u);
}

TEST(ExactSampler, TrajectoryBackendConvergesToExact)
{
    // The headline validation: Monte-Carlo Pauli trajectories
    // unravel exactly the channels the density matrix evolves, so
    // with enough trajectories the TVD between the two must be
    // small.  Readout disabled to isolate the gate channels.
    const NoiseModel model{0.01, 0.05, 0.0, 0.0};
    const auto routed = trivialRouting(ghz(4));

    ExactSampler exact(model);
    const Distribution truth = exact.exactDistribution(routed, 4);

    TrajectorySampler trajectories(model, 3000);
    Rng rng(5);
    const Distribution sampled =
        trajectories.sample(routed, 4, 60000, rng);

    EXPECT_LT(hammer::metrics::tvd(truth, sampled), 0.02)
        << "trajectory unravelling must converge to the exact "
           "channel";
}

TEST(ExactSampler, TrajectoryConvergesToExactWithReadout)
{
    const NoiseModel model{0.005, 0.03, 0.02, 0.05};
    const auto routed = trivialRouting(bernsteinVazirani(4, 0b1111));

    ExactSampler exact(model);
    const Distribution truth = exact.exactDistribution(routed, 4);

    TrajectorySampler trajectories(model, 2500);
    Rng rng(6);
    const Distribution sampled =
        trajectories.sample(routed, 4, 50000, rng);

    EXPECT_LT(hammer::metrics::tvd(truth, sampled), 0.025);
}

TEST(ExactSampler, SampleMatchesExactDistribution)
{
    const NoiseModel model = machinePreset("machineA").scaled(2.0);
    ExactSampler sampler(model);
    const auto routed = trivialRouting(ghz(4));
    const Distribution exact = sampler.exactDistribution(routed, 4);
    Rng rng(7);
    const Distribution sampled = sampler.sample(routed, 4, 80000, rng);
    EXPECT_LT(hammer::metrics::tvd(exact, sampled), 0.02);
}

TEST(ExactSampler, MarginalisesAncilla)
{
    ExactSampler sampler(machinePreset("machineA"));
    const auto routed = trivialRouting(bernsteinVazirani(3, 0b101));
    const Distribution exact = sampler.exactDistribution(routed, 3);
    EXPECT_EQ(exact.numBits(), 3);
    for (const auto &e : exact.entries())
        EXPECT_LT(e.outcome, Bits{1} << 3);
}

TEST(ExactSampler, RespectsRoutedLayoutPermutation)
{
    // Routing through SWAPs must not change the logical answer.
    const Bits key = 0b1101;
    const auto routed = transpile(bernsteinVazirani(4, key),
                                  CouplingMap::line(5));
    ExactSampler sampler(machinePreset("ideal"));
    const Distribution exact = sampler.exactDistribution(routed, 4);
    EXPECT_NEAR(exact.probability(key), 1.0, 1e-9);
}

TEST(ExactSampler, RejectsOversizedCircuits)
{
    ExactSampler sampler(machinePreset("machineA"));
    const auto routed = trivialRouting(bernsteinVazirani(11, 1));
    Rng rng(8);
    EXPECT_THROW(sampler.sample(routed, 11, 100, rng),
                 std::invalid_argument);
}

TEST(ExactSampler, RejectsOutOfRangeModel)
{
    EXPECT_THROW(ExactSampler(NoiseModel{0.9, 0.0, 0.0, 0.0}),
                 std::invalid_argument);
}

} // namespace
