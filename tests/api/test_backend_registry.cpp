/**
 * @file
 * BackendRegistry: factory lookup, spec validation at the API
 * boundary, and noise-model resolution.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "api/backend.hpp"
#include "api/workload.hpp"
#include "noise/distribution_memo.hpp"

namespace {

using hammer::api::BackendRegistry;
using hammer::api::BackendSpec;
using hammer::api::resolveNoiseModel;
using hammer::api::validateBackendSpec;
using hammer::common::Rng;
using hammer::noise::DistributionMemo;

TEST(BackendRegistry, GlobalKnowsTheBuiltinBackends)
{
    const auto &registry = BackendRegistry::global();
    EXPECT_TRUE(registry.contains("trajectory"));
    EXPECT_TRUE(registry.contains("channel"));
    EXPECT_TRUE(registry.contains("exact"));
    EXPECT_TRUE(registry.contains("auto"));
    EXPECT_FALSE(registry.contains("remote"));
    EXPECT_EQ(registry.names().size(), 4u);
}

TEST(BackendRegistry, DuplicateRegistrationThrows)
{
    auto registry = hammer::api::defaultBackendRegistry();
    try {
        registry.add("channel", [](const BackendSpec &) {
            return std::unique_ptr<hammer::noise::NoisySampler>();
        });
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &error) {
        EXPECT_NE(std::string(error.what()).find("channel"),
                  std::string::npos)
            << "the message must name the duplicate backend";
    }
}

TEST(BackendRegistry, BuiltBackendsSample)
{
    Rng rng(1);
    const auto workload = hammer::api::makeGhzWorkload(3);
    for (const auto &name : BackendRegistry::global().names()) {
        BackendSpec spec;
        spec.trajectories = 5;
        auto sampler = BackendRegistry::global().make(name, spec);
        ASSERT_NE(sampler, nullptr) << name;
        const auto dist = sampler->sample(workload.routed, 3, 200,
                                          rng);
        EXPECT_TRUE(dist.normalized()) << name;
        EXPECT_EQ(dist.numBits(), 3) << name;
    }
}

TEST(BackendRegistry, CachedExactMatchesExactBitForBit)
{
    // The exact backend's memo must be a pure memoisation: a memo hit
    // draws the same histogram as a cold evolution from the same RNG
    // state, for every shot budget.
    DistributionMemo &memo = DistributionMemo::shared();
    const auto workload = hammer::api::makeGhzWorkload(4);
    BackendSpec spec;
    for (int shots : {64, 256}) {
        memo.clear();
        const auto exact =
            BackendRegistry::global().make("exact", spec);
        Rng cold_rng(7), warm_rng(7);
        const auto cold =
            exact->sample(workload.routed, 4, shots, cold_rng);
        const auto warm =
            exact->sample(workload.routed, 4, shots, warm_rng);
        EXPECT_EQ(memo.stats().misses, 1u);
        EXPECT_EQ(memo.stats().hits, 1u);
        ASSERT_EQ(cold.support(), warm.support()) << shots << " shots";
        for (std::size_t i = 0; i < cold.entries().size(); ++i) {
            EXPECT_EQ(cold.entries()[i].outcome,
                      warm.entries()[i].outcome);
            EXPECT_EQ(cold.entries()[i].probability,
                      warm.entries()[i].probability)
                << shots << " shots";
        }
    }
}

TEST(BackendRegistry, CachedExactReusesTheDensityMatrixEvolution)
{
    DistributionMemo &memo = DistributionMemo::shared();
    memo.clear();
    const auto workload = hammer::api::makeGhzWorkload(4);
    BackendSpec spec;
    Rng rng(11);
    const auto sampler = BackendRegistry::global().make("exact", spec);

    sampler->sample(workload.routed, 4, 100, rng);
    EXPECT_EQ(memo.stats().entries, 1u);
    EXPECT_EQ(memo.stats().hits, 0u);

    // Further budgets resample the memoised distribution.
    sampler->sample(workload.routed, 4, 500, rng);
    sampler->sampleBatch(workload.routed, 4, 2000, rng, 2);
    EXPECT_EQ(memo.stats().entries, 1u);
    EXPECT_EQ(memo.stats().hits, 2u);

    // A different measured width is a different key.
    sampler->sample(workload.routed, 3, 100, rng);
    EXPECT_EQ(memo.stats().entries, 2u);
}

TEST(BackendRegistry, CachedExactSampleBatchDeterministicAcrossThreads)
{
    DistributionMemo::shared().clear();
    const auto workload = hammer::api::makeGhzWorkload(4);
    BackendSpec spec;
    const auto sampler = BackendRegistry::global().make("exact", spec);

    std::vector<hammer::core::Distribution> results;
    for (int threads : {1, 2, 4}) {
        Rng rng(23);
        results.push_back(sampler->sampleBatch(workload.routed, 4,
                                               5000, rng, threads));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
        ASSERT_EQ(results[0].support(), results[i].support());
        for (const auto &e : results[0].entries())
            EXPECT_EQ(e.probability,
                      results[i].probability(e.outcome));
    }
}

TEST(BackendRegistry, UnknownBackendThrowsWithTheKnownList)
{
    try {
        BackendRegistry::global().make("warpdrive", {});
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("warpdrive"), std::string::npos);
        EXPECT_NE(message.find("channel"), std::string::npos);
    }
}

TEST(BackendRegistry, SpecValidationRejectsBadBudgets)
{
    BackendSpec spec;
    spec.shots = 0;
    EXPECT_THROW(validateBackendSpec(spec), std::invalid_argument);
    spec.shots = -8;
    EXPECT_THROW(validateBackendSpec(spec), std::invalid_argument);
    spec = {};
    spec.trajectories = 0;
    EXPECT_THROW(validateBackendSpec(spec), std::invalid_argument);
    spec = {};
    spec.threads = -1;
    EXPECT_THROW(validateBackendSpec(spec), std::invalid_argument);
    spec = {};
    spec.noiseScale = -0.5;
    EXPECT_THROW(validateBackendSpec(spec), std::invalid_argument);
    spec = {};
    EXPECT_NO_THROW(validateBackendSpec(spec));

    // make() validates before instantiating.
    spec.shots = 0;
    EXPECT_THROW(BackendRegistry::global().make("channel", spec),
                 std::invalid_argument);
}

TEST(BackendRegistry, NoiseModelResolution)
{
    BackendSpec spec;
    spec.machine = "machineA";
    spec.noiseScale = 2.0;
    const auto scaled = resolveNoiseModel(spec);
    const auto preset = hammer::noise::machinePreset("machineA");
    EXPECT_DOUBLE_EQ(scaled.p2q, preset.p2q * 2.0);

    // An explicit model wins over preset + scale.
    hammer::noise::NoiseModel custom;
    custom.p2q = 0.123;
    spec.model = custom;
    EXPECT_DOUBLE_EQ(resolveNoiseModel(spec).p2q, 0.123);

    // Unknown presets fail at the boundary.
    BackendSpec unknown;
    unknown.machine = "machineZ";
    EXPECT_THROW(resolveNoiseModel(unknown), std::invalid_argument);
}

} // namespace
