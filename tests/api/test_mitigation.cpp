/**
 * @file
 * Mitigator adapters and MitigationChain: equivalence with the
 * underlying library calls, chain composition and order sensitivity,
 * and spec parsing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

#include "api/mitigation.hpp"
#include "core/hammer.hpp"
#include "mitigation/readout_mitigation.hpp"
#include "noise/channel_sampler.hpp"

namespace {

using hammer::api::HammerMitigator;
using hammer::api::MitigationChain;
using hammer::api::MitigationContext;
using hammer::api::mitigationChainFromSpec;
using hammer::api::ReadoutMitigator;
using hammer::common::Bits;
using hammer::common::Rng;
using hammer::core::Distribution;

/** A clustered BV-like noisy histogram to post-process. */
Distribution
sampleHistogram()
{
    Rng rng(7);
    const auto workload =
        hammer::api::makeBvWorkload(8, 0b11111111);
    hammer::noise::ChannelSampler sampler(
        hammer::noise::machinePreset("machineC").scaled(2.0));
    return sampler.sample(workload.routed, 8, 6000, rng);
}

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

TEST(Mitigator, HammerMatchesDirectReconstruction)
{
    const Distribution noisy = sampleHistogram();
    MitigationContext ctx;
    EXPECT_TRUE(identical(HammerMitigator().apply(noisy, ctx),
                          hammer::core::reconstruct(noisy)));
    EXPECT_TRUE(identical(
        HammerMitigator({}, 3).apply(noisy, ctx),
        hammer::core::reconstructIterative(noisy, 3)));
}

TEST(Mitigator, HammerFillsStatsThroughTheContext)
{
    const Distribution noisy = sampleHistogram();
    hammer::core::HammerStats stats;
    MitigationContext ctx;
    ctx.stats = &stats;
    HammerMitigator().apply(noisy, ctx);
    EXPECT_EQ(stats.uniqueOutcomes, noisy.support());
    EXPECT_GT(stats.pairOperations, 0u);
}

TEST(Mitigator, ReadoutMatchesDirectMitigation)
{
    const Distribution noisy = sampleHistogram();
    const auto model = hammer::noise::machinePreset("machineC");
    MitigationContext ctx;
    ctx.model = model;
    EXPECT_TRUE(
        identical(ReadoutMitigator().apply(noisy, ctx),
                  hammer::mitigation::mitigateReadout(noisy, model)));
}

TEST(Mitigator, EnsembleRequiresAFullPipelineContext)
{
    const Distribution noisy = sampleHistogram();
    MitigationContext ctx; // no workload / sampler / rng
    EXPECT_THROW(
        hammer::api::EnsembleMitigator().apply(noisy, ctx),
        std::invalid_argument);
}

TEST(MitigationChain, EmptyChainIsIdentityAndNamedNone)
{
    const Distribution noisy = sampleHistogram();
    MitigationContext ctx;
    MitigationChain chain;
    EXPECT_TRUE(chain.empty());
    EXPECT_EQ(chain.name(), "none");
    EXPECT_TRUE(identical(chain.apply(noisy, ctx), noisy));
}

TEST(MitigationChain, OrderIsSignificant)
{
    // readout-then-hammer (the paper's "both" configuration) and
    // hammer-then-readout are different pipelines and must produce
    // different histograms on a readout-heavy machine.
    const Distribution noisy = sampleHistogram();
    const auto model =
        hammer::noise::machinePreset("machineC").scaled(2.0);

    MitigationContext ctx;
    ctx.model = model;
    const auto ro_then_ham =
        mitigationChainFromSpec("readout,hammer").apply(noisy, ctx);
    const auto ham_then_ro =
        mitigationChainFromSpec("hammer,readout").apply(noisy, ctx);

    EXPECT_FALSE(identical(ro_then_ham, ham_then_ro));

    // And readout-then-hammer must equal composing the library calls
    // by hand in that order.
    const auto by_hand = hammer::core::reconstruct(
        hammer::mitigation::mitigateReadout(noisy, model));
    EXPECT_TRUE(identical(ro_then_ham, by_hand));
}

TEST(MitigatorRegistry, GlobalKnowsTheBuiltinStages)
{
    const auto &registry =
        hammer::api::MitigatorRegistry::global();
    EXPECT_TRUE(registry.contains("hammer"));
    EXPECT_FALSE(registry.contains("hammer-fast"));
    EXPECT_TRUE(registry.contains("readout"));
    EXPECT_TRUE(registry.contains("ensemble"));
    EXPECT_FALSE(registry.contains("sorcery"));
    EXPECT_EQ(registry.names().size(), 3u);
    EXPECT_NE(registry.usage().find("hammer[:<iterations>]"),
              std::string::npos);
}

TEST(MitigatorRegistry, DuplicateRegistrationThrows)
{
    auto registry = hammer::api::defaultMitigatorRegistry();
    try {
        registry.add("hammer", "dup",
                     [](const std::vector<std::string> &) {
                         return std::make_shared<HammerMitigator>();
                     });
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &error) {
        EXPECT_NE(std::string(error.what()).find("hammer"),
                  std::string::npos)
            << "the message must name the duplicate stage";
    }
    // Names that would break spec parsing are rejected too.
    EXPECT_THROW(registry.add("bad:name", "u",
                              [](const std::vector<std::string> &) {
                                  return std::make_shared<
                                      HammerMitigator>();
                              }),
                 std::invalid_argument);
}

TEST(MitigatorRegistry, CustomStagesPlugIn)
{
    auto registry = hammer::api::defaultMitigatorRegistry();
    registry.add("identity", "identity",
                 [](const std::vector<std::string> &) {
                     return std::make_shared<MitigationChain>();
                 });
    const auto stage = registry.make("identity");
    ASSERT_NE(stage, nullptr);
    EXPECT_EQ(stage->name(), "none");

    // Unknown stages name the known list.
    try {
        registry.make("sorcery");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("sorcery"), std::string::npos);
        EXPECT_NE(message.find("identity"), std::string::npos);
    }
}

TEST(MitigationChain, SpecParsing)
{
    EXPECT_EQ(mitigationChainFromSpec("").size(), 0u);
    EXPECT_EQ(mitigationChainFromSpec("none").size(), 0u);
    EXPECT_EQ(mitigationChainFromSpec("hammer").name(), "hammer");
    EXPECT_EQ(mitigationChainFromSpec("hammer:2").name(), "hammer:2");
    EXPECT_EQ(mitigationChainFromSpec("readout,hammer").name(),
              "readout+hammer");
    EXPECT_EQ(
        mitigationChainFromSpec("ensemble:4,readout,hammer").size(),
        3u);

    EXPECT_THROW(mitigationChainFromSpec("sorcery"),
                 std::invalid_argument);
    EXPECT_THROW(mitigationChainFromSpec("hammer,,readout"),
                 std::invalid_argument);
    EXPECT_THROW(mitigationChainFromSpec("hammer:0"),
                 std::invalid_argument);
    EXPECT_THROW(mitigationChainFromSpec("hammer:1:2"),
                 std::invalid_argument);
}

} // namespace
