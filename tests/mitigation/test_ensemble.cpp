/**
 * @file
 * Unit tests for the Ensemble-of-Diverse-Mappings baseline.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "circuits/bv.hpp"
#include "circuits/coupling.hpp"
#include "circuits/ghz.hpp"
#include "metrics/metrics.hpp"
#include "mitigation/ensemble.hpp"
#include "noise/channel_sampler.hpp"

namespace {

using hammer::common::Bits;
using hammer::common::Rng;
using hammer::core::Distribution;
using namespace hammer::mitigation;

TEST(Ensemble, DiverseLayoutsArePermutations)
{
    for (int count : {1, 2, 3, 5}) {
        const auto layouts = diverseLayouts(8, count);
        ASSERT_EQ(layouts.size(), static_cast<std::size_t>(count));
        for (const auto &layout : layouts) {
            std::vector<int> sorted = layout;
            std::sort(sorted.begin(), sorted.end());
            for (int q = 0; q < 8; ++q)
                EXPECT_EQ(sorted[static_cast<std::size_t>(q)], q);
        }
    }
}

TEST(Ensemble, DiverseLayoutsAreDistinct)
{
    const auto layouts = diverseLayouts(9, 3);
    EXPECT_NE(layouts[0], layouts[1]);
    EXPECT_NE(layouts[1], layouts[2]);
    EXPECT_NE(layouts[0], layouts[2]);
}

TEST(Ensemble, FirstLayoutIsIdentity)
{
    const auto layouts = diverseLayouts(5, 2);
    for (int q = 0; q < 5; ++q)
        EXPECT_EQ(layouts[0][static_cast<std::size_t>(q)], q);
}

TEST(Ensemble, DiverseLayoutsRejectBadCounts)
{
    EXPECT_THROW(diverseLayouts(4, 0), std::invalid_argument);
    EXPECT_THROW(diverseLayouts(4, 5), std::invalid_argument);
}

TEST(Ensemble, IdealSamplerGivesIdealAnswerUnderAnyMapping)
{
    const auto circuit = hammer::circuits::bernsteinVazirani(5,
                                                             0b10110);
    const auto coupling = hammer::circuits::CouplingMap::line(6);
    hammer::noise::ChannelSampler sampler(
        hammer::noise::machinePreset("ideal"));
    Rng rng(1);
    const Distribution dist = ensembleSample(
        circuit, coupling, 5, sampler, 6000, rng, {3});
    EXPECT_EQ(dist.support(), 1u);
    EXPECT_NEAR(dist.probability(0b10110), 1.0, 1e-12);
}

TEST(Ensemble, CombinedDistributionIsNormalised)
{
    const auto circuit = hammer::circuits::ghz(6);
    const auto coupling = hammer::circuits::CouplingMap::ring(6);
    hammer::noise::ChannelSampler sampler(
        hammer::noise::machinePreset("machineB"));
    Rng rng(2);
    const Distribution dist = ensembleSample(
        circuit, coupling, 6, sampler, 9000, rng, {3});
    EXPECT_TRUE(dist.normalized(1e-9));
}

TEST(Ensemble, DecoheresMappingSpecificBurstErrors)
{
    // A coherent over-rotation grows with the two-qubit gates each
    // *physical* qubit hosts, and on a line every rotated layout
    // routes through different SWAPs onto different homes: one
    // mapping's dominant incorrect outcome is not the others', so
    // the ensemble dilutes it relative to a single-mapping run.
    // (ChannelParams::burstPattern cannot show this: it flips the
    // same logical bits under every mapping.)
    const Bits key = 0b11111111;
    const auto circuit = hammer::circuits::bernsteinVazirani(8, key);
    const auto coupling = hammer::circuits::CouplingMap::line(9);

    hammer::noise::ChannelParams channel;
    channel.coherentPer2q = 0.08;
    hammer::noise::ChannelSampler sampler(
        hammer::noise::machinePreset("machineA"), channel);

    Rng rng_single(3), rng_ensemble(3);
    const auto single_routed = hammer::circuits::transpile(
        circuit, coupling);
    const Distribution single = sampler.sample(
        single_routed, 8, 12000, rng_single);
    const Distribution ensemble = ensembleSample(
        circuit, coupling, 8, sampler, 12000, rng_ensemble, {3});

    // The single run's most probable incorrect outcome.
    Bits dominant = key;
    double dominant_probability = -1.0;
    for (const auto &e : single.entries()) {
        if (e.outcome != key && e.probability > dominant_probability) {
            dominant = e.outcome;
            dominant_probability = e.probability;
        }
    }
    ASSERT_NE(dominant, key);
    EXPECT_LT(ensemble.probability(dominant), dominant_probability);
    EXPECT_GE(hammer::metrics::ist(ensemble, {key}),
              hammer::metrics::ist(single, {key}) * 0.9);
}

TEST(Ensemble, RespectsShotBudgetSplit)
{
    const auto circuit = hammer::circuits::ghz(4);
    const auto coupling = hammer::circuits::CouplingMap::full(4);
    hammer::noise::ChannelSampler sampler(
        hammer::noise::machinePreset("ideal"));
    Rng rng(4);
    // Uneven split (1000 over 3 mappings) must still work.
    const Distribution dist = ensembleSample(
        circuit, coupling, 4, sampler, 1000, rng, {3});
    EXPECT_TRUE(dist.normalized(1e-9));
}

TEST(Ensemble, RejectsBadArguments)
{
    const auto circuit = hammer::circuits::ghz(4);
    const auto coupling = hammer::circuits::CouplingMap::full(4);
    hammer::noise::ChannelSampler sampler(
        hammer::noise::machinePreset("ideal"));
    Rng rng(5);
    EXPECT_THROW(ensembleSample(circuit, coupling, 4, sampler, 2, rng,
                                {3}),
                 std::invalid_argument);
    EXPECT_THROW(ensembleSample(circuit, coupling, 4, sampler, 100,
                                rng, {0}),
                 std::invalid_argument);
}

} // namespace
