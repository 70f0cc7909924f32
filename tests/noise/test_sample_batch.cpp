/**
 * @file
 * Tests for the parallel batched execution engine: single- and
 * multi-threaded NoisySampler::sample() runs must produce
 * *bit-identical* histograms for a fixed seed, on every backend.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "circuits/bv.hpp"
#include "circuits/ghz.hpp"
#include "circuits/transpiler.hpp"
#include "core/ehd.hpp"
#include "metrics/metrics.hpp"
#include "noise/channel_sampler.hpp"
#include "noise/exact_sampler.hpp"
#include "noise/trajectory_sampler.hpp"

namespace {

using hammer::common::Bits;
using hammer::common::Rng;
using hammer::core::Distribution;
using namespace hammer::circuits;
using namespace hammer::noise;

/** Assert two distributions are exactly equal, entry by entry. */
void
expectIdentical(const Distribution &a, const Distribution &b)
{
    ASSERT_EQ(a.numBits(), b.numBits());
    ASSERT_EQ(a.support(), b.support());
    for (const auto &e : a.entries())
        EXPECT_EQ(e.probability, b.probability(e.outcome))
            << "outcome " << e.outcome;
}

TEST(SampleBatch, TrajectoryThreadCountInvariance)
{
    const auto routed = trivialRouting(bernsteinVazirani(6, 0b101101));
    TrajectorySampler sampler(machinePreset("machineB"), 60);

    Rng serial_rng(11);
    const Distribution serial =
        sampler.sample(routed, 6, 4000, serial_rng, 1);
    for (int threads : {2, 3, 4, 7}) {
        Rng rng(11);
        const Distribution parallel =
            sampler.sample(routed, 6, 4000, rng, threads);
        expectIdentical(serial, parallel);
    }
}

TEST(SampleBatch, ChannelThreadCountInvariance)
{
    // > 4096 shots so the engine actually spans several chunks.
    const auto routed = trivialRouting(bernsteinVazirani(8, 0b11011010));
    ChannelSampler sampler(machinePreset("machineA"));

    Rng serial_rng(13);
    const Distribution serial =
        sampler.sample(routed, 8, 20000, serial_rng, 1);
    for (int threads : {2, 4, 5}) {
        Rng rng(13);
        const Distribution parallel =
            sampler.sample(routed, 8, 20000, rng, threads);
        expectIdentical(serial, parallel);
    }
}

TEST(SampleBatch, AdvancesCallerRngIndependentlyOfThreadCount)
{
    // The caller's generator must be in the same state after a batch
    // no matter how many threads ran it, so interleaved experiments
    // stay reproducible: every backend consumes exactly one draw.
    const auto routed = trivialRouting(ghz(5));
    TrajectorySampler trajectory(machinePreset("machineA"), 20);
    ChannelSampler channel(machinePreset("machineA"));
    ExactSampler exact(machinePreset("machineA"));

    NoisySampler *const samplers[] = {&trajectory, &channel, &exact};
    for (NoisySampler *sampler : samplers) {
        Rng a(17), b(17), one_draw(17);
        (void)sampler->sample(routed, 5, 500, a, 1);
        (void)sampler->sample(routed, 5, 500, b, 4);
        (void)one_draw.split();
        for (int i = 0; i < 16; ++i) {
            const auto want = one_draw();
            EXPECT_EQ(a(), want);
            EXPECT_EQ(b(), want);
        }
    }
}

TEST(SampleBatch, RepeatedBatchesDiffer)
{
    // Consecutive batches from one generator must be fresh samples,
    // not replays.
    const auto routed = trivialRouting(ghz(6));
    TrajectorySampler sampler(machinePreset("machineB"), 30);
    Rng rng(19);
    const Distribution first =
        sampler.sample(routed, 6, 3000, rng, 2);
    const Distribution second =
        sampler.sample(routed, 6, 3000, rng, 2);
    bool differs = first.support() != second.support();
    for (const auto &e : first.entries()) {
        if (e.probability != second.probability(e.outcome))
            differs = true;
    }
    EXPECT_TRUE(differs);
}

TEST(SampleBatch, TrajectoryBatchMatchesSerialPhysics)
{
    // The forked per-trajectory streams must still reproduce the
    // noise statistics of the physics: a dominant correct answer
    // and Hamming-clustered errors.
    const Bits key = 0b10101;
    const auto routed = trivialRouting(bernsteinVazirani(5, key));
    TrajectorySampler sampler(machinePreset("machineA"), 100);
    Rng rng(23);
    const Distribution dist =
        sampler.sample(routed, 5, 8000, rng, 4);
    EXPECT_GT(hammer::metrics::pst(dist, {key}), 0.5);
    EXPECT_TRUE(hammer::metrics::inferredCorrectly(dist, {key}));
    const double ehd =
        hammer::core::expectedHammingDistance(dist, {key});
    EXPECT_LT(ehd, 2.0) << "errors must stay Hamming-clustered";
}

TEST(SampleBatch, IdealNoiseStillExact)
{
    const auto routed = trivialRouting(bernsteinVazirani(4, 0b1011));
    TrajectorySampler sampler(machinePreset("ideal"), 10);
    Rng rng(29);
    const Distribution dist =
        sampler.sample(routed, 4, 2000, rng, 4);
    EXPECT_EQ(dist.support(), 1u);
    EXPECT_NEAR(dist.probability(0b1011), 1.0, 1e-12);
}

TEST(SampleBatch, ShotBudgetIsExactlyHonoured)
{
    // 1000 shots over 30 trajectories does not divide evenly; the
    // quota schedule must still account for every shot, which shows
    // up as probabilities with denominator exactly 1000.
    const auto routed = trivialRouting(ghz(4));
    TrajectorySampler sampler(machinePreset("machineC"), 30);
    Rng rng(31);
    const Distribution dist =
        sampler.sample(routed, 4, 1000, rng, 3);
    double mass = 0.0;
    for (const auto &e : dist.entries()) {
        const double scaled = e.probability * 1000.0;
        EXPECT_NEAR(scaled, std::round(scaled), 1e-9);
        mass += e.probability;
    }
    EXPECT_NEAR(mass, 1.0, 1e-12);
}

TEST(SampleBatch, RejectsBadArguments)
{
    const auto routed = trivialRouting(ghz(4));
    TrajectorySampler sampler(machinePreset("machineA"), 10);
    Rng rng(41);
    EXPECT_THROW(sampler.sample(routed, 0, 100, rng, 2),
                 std::invalid_argument);
    EXPECT_THROW(sampler.sample(routed, 5, 100, rng, 2),
                 std::invalid_argument);
    EXPECT_THROW(sampler.sample(routed, 4, 0, rng, 2),
                 std::invalid_argument);
    EXPECT_THROW(sampler.sample(routed, 4, 100, rng, -3),
                 std::invalid_argument);
}

} // namespace
