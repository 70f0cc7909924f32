/**
 * @file
 * Unit tests for the HAMMER reconstruction (Algorithm 1), including
 * an exact hand-computed walkthrough of the paper's Fig. 6 example,
 * statistical improvement on a BV-like noisy distribution, the
 * ablation knobs, and both computation paths (pair scan and
 * Walsh–Hadamard transform) against Algorithm 1 and each other.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "api/pipeline.hpp"
#include "common/kernel_tier.hpp"
#include "common/rng.hpp"
#include "core/ehd.hpp"
#include "core/hammer.hpp"
#include "core/hammer_path.hpp"
#include "metrics/metrics.hpp"
#include "mitigation/readout_mitigation.hpp"
#include "noise/noise_model.hpp"

namespace {

using hammer::common::Bits;
using hammer::common::KernelTier;
using hammer::core::Distribution;
using namespace hammer::core;

/** The output distribution of paper Fig. 6(a). */
Distribution
figure6Distribution()
{
    Distribution d(3);
    d.set(0b111, 0.30);
    d.set(0b101, 0.40);
    d.set(0b110, 0.05);
    d.set(0b011, 0.10);
    d.set(0b010, 0.10);
    d.set(0b001, 0.05);
    return d;
}

/**
 * A synthetic BV-style noisy histogram built from the exact local
 * bit-flip channel (each bit flips with probability eps), plus extra
 * mass on a dominant 2-bit-flip error — the structure of paper
 * Fig. 7/8.
 */
Distribution
bvLikeDistribution(int n, Bits key, double eps = 0.05,
                   double dominant_extra = 0.10)
{
    Distribution d(n);
    for (Bits x = 0; x < (Bits{1} << n); ++x) {
        const int dist = hammer::common::hammingDistance(x, key);
        d.set(x, std::pow(eps, dist) * std::pow(1.0 - eps, n - dist));
    }
    d.add(key ^ 0b11, dominant_extra);
    d.normalize();
    return d;
}

/**
 * A sampled histogram: each of @p shots flips every bit of @p key
 * with probability @p eps.  Most outcomes are seen once, so the
 * least probable tie group holds most of the support, and many other
 * probabilities tie too — the shape of a real NISQ run.
 */
Distribution
sampledHistogram(int n, Bits key, double eps, int shots,
                 std::uint64_t seed)
{
    hammer::common::Rng rng(seed);
    std::vector<Bits> samples(static_cast<std::size_t>(shots));
    for (Bits &x : samples) {
        x = key;
        for (int q = 0; q < n; ++q) {
            if (rng.uniform() < eps)
                x ^= Bits{1} << q;
        }
    }
    return Distribution::fromShots(n, samples);
}

/**
 * A sweep-hammer-shaped histogram: @p workload's raw output drawn
 * through the `channel` backend.
 */
Distribution
channelHistogram(const std::string &workload, int shots,
                 std::uint64_t seed)
{
    hammer::api::ExperimentSpec spec;
    spec.workload = workload;
    spec.backend = "channel";
    spec.backendSpec.shots = shots;
    spec.backendSpec.seed = seed;
    spec.mitigation = "none";
    return hammer::api::Pipeline().run(spec).raw;
}

/** Readout unfolding of a sampled histogram: no two outcomes tie. */
Distribution
unfoldedHistogram()
{
    const Distribution raw = sampledHistogram(9, 0b101101011, 0.06,
                                              3000, 17);
    return hammer::mitigation::mitigateReadout(
        raw, hammer::noise::machinePreset("machineA"));
}

/**
 * Algorithm 1 (paper Appendix A) written out: Step 1 sums P(y) over
 * every ordered pair within the radius (plus P(x) at distance 0),
 * Step 2 inverts it per the weight scheme, Step 3 scores each x from
 * its (less probable, with the filter) neighbours.
 */
Distribution
algorithm1(const Distribution &in, const HammerConfig &config)
{
    const int n = in.numBits();
    const int dmax = config.maxDistance < 0 ? (n - 1) / 2
                                            : config.maxDistance;
    const auto &entries = in.entries();
    std::vector<double> chs(static_cast<std::size_t>(dmax) + 1, 0.0);
    for (const Entry &x : entries) {
        chs[0] += x.probability;
        for (const Entry &y : entries) {
            const int d = hammer::common::hammingDistance(x.outcome,
                                                          y.outcome);
            if (d > 0 && d <= dmax)
                chs[static_cast<std::size_t>(d)] += y.probability;
        }
    }
    std::vector<double> w(chs.size(), 0.0);
    for (std::size_t d = 0; d < w.size(); ++d) {
        switch (config.weightScheme) {
        case WeightScheme::InverseChs:
            w[d] = chs[d] > 0.0 ? 1.0 / chs[d] : 0.0;
            break;
        case WeightScheme::Uniform:
            w[d] = 1.0;
            break;
        case WeightScheme::InverseBinomial:
            w[d] = 1.0 / hammer::common::binomial(n, static_cast<int>(d));
            break;
        }
    }
    Distribution out(n);
    for (const Entry &x : entries) {
        double score = x.probability;
        for (const Entry &y : entries) {
            const int d = hammer::common::hammingDistance(x.outcome,
                                                          y.outcome);
            if (d == 0 || d > dmax)
                continue;
            if (config.filterLowerProbability &&
                !(x.probability > y.probability))
                continue;
            score += w[static_cast<std::size_t>(d)] * y.probability;
        }
        out.set(x.outcome,
                config.scoreCombine == ScoreCombine::Multiplicative
                    ? score * x.probability
                    : score);
    }
    out.normalize();
    return out;
}

/** Forces the process-wide kernel tier for its lifetime. */
class TierGuard
{
  public:
    explicit TierGuard(KernelTier tier)
    {
        hammer::common::setActiveTier(tier);
    }
    ~TierGuard() { hammer::common::setActiveTier(std::nullopt); }
    TierGuard(const TierGuard &) = delete;
    TierGuard &operator=(const TierGuard &) = delete;
};

/** Exact equality of outputs and stats (no ULP slack). */
void
expectBitIdentical(const Distribution &out, const HammerStats &stats,
                   const Distribution &ref, const HammerStats &ref_stats,
                   const std::string &what)
{
    ASSERT_EQ(out.support(), ref.support()) << what;
    for (std::size_t i = 0; i < out.support(); ++i) {
        EXPECT_EQ(out.entries()[i].outcome, ref.entries()[i].outcome)
            << what;
        EXPECT_EQ(out.entries()[i].probability,
                  ref.entries()[i].probability)
            << what << ", entry " << i;
    }
    EXPECT_EQ(stats.pairOperations, ref_stats.pairOperations) << what;
    EXPECT_EQ(stats.aggregateChs, ref_stats.aggregateChs) << what;
    EXPECT_EQ(stats.weights, ref_stats.weights) << what;
    EXPECT_EQ(stats.path, ref_stats.path) << what;
}

/** |a - b| relative to the larger magnitude; 0 when equal. */
double
relativeDifference(double a, double b)
{
    return a == b ? 0.0
                  : std::abs(a - b) / std::max(std::abs(a), std::abs(b));
}

/** Outputs, Step-1 CHS and Step-2 weights agree within @p tol. */
void
expectAgree(const Distribution &out, const HammerStats &stats,
            const Distribution &ref, const HammerStats &ref_stats,
            double tol, const std::string &what)
{
    ASSERT_EQ(out.support(), ref.support()) << what;
    for (std::size_t i = 0; i < out.support(); ++i) {
        ASSERT_EQ(out.entries()[i].outcome, ref.entries()[i].outcome)
            << what;
        EXPECT_LE(relativeDifference(out.entries()[i].probability,
                                     ref.entries()[i].probability),
                  tol)
            << what << ", entry " << i;
    }
    ASSERT_EQ(stats.aggregateChs.size(), ref_stats.aggregateChs.size())
        << what;
    ASSERT_EQ(stats.weights.size(), ref_stats.weights.size()) << what;
    for (std::size_t d = 0; d < stats.aggregateChs.size(); ++d) {
        EXPECT_LE(relativeDifference(stats.aggregateChs[d],
                                     ref_stats.aggregateChs[d]),
                  tol)
            << what << ", CHS bin " << d;
        EXPECT_LE(relativeDifference(stats.weights[d],
                                     ref_stats.weights[d]),
                  tol)
            << what << ", weight " << d;
    }
}

TEST(Hammer, WeightsMatchHandComputationOnFig6)
{
    const Distribution d = figure6Distribution();
    // n = 3 -> dmax = 1. Aggregate CHS: bin0 = 1.0 (total mass),
    // bin1 = 2.4 (hand-enumerated ordered pairs).
    const auto weights = hammerWeights(d);
    ASSERT_EQ(weights.size(), 2u);
    EXPECT_NEAR(weights[0], 1.0, 1e-12);
    EXPECT_NEAR(weights[1], 5.0 / 12.0, 1e-12);
}

TEST(Hammer, Fig6ExactReconstruction)
{
    const Distribution d = figure6Distribution();
    const Distribution out = reconstruct(d);

    // Hand-executed Algorithm 1 (W1 = 5/12):
    //   score(111) = 0.30 + W1*(0.10 + 0.05)          -> 0.10875 * ...
    //   score(101) = 0.40 + W1*(0.05 + 0.30)
    //   score(011) = score(010) = 0.10 + W1*0.05
    //   score(110) = score(001) = 0.05 (no lower-prob neighbours)
    // after P_out = score * P_in and normalisation by 0.35625:
    EXPECT_NEAR(out.probability(0b111), 0.10875 / 0.35625, 1e-9);
    EXPECT_NEAR(out.probability(0b101), 0.2183333333 / 0.35625, 1e-7);
    EXPECT_NEAR(out.probability(0b011), 0.0120833333 / 0.35625, 1e-7);
    EXPECT_NEAR(out.probability(0b010), 0.0120833333 / 0.35625, 1e-7);
    EXPECT_NEAR(out.probability(0b110), 0.0025 / 0.35625, 1e-9);
    EXPECT_NEAR(out.probability(0b001), 0.0025 / 0.35625, 1e-9);
}

TEST(Hammer, OutputIsNormalisedOverSameSupport)
{
    const Distribution d = bvLikeDistribution(10, 0b1111111111);
    const Distribution out = reconstruct(d);
    EXPECT_TRUE(out.normalized(1e-9));
    EXPECT_EQ(out.support(), d.support());
    for (const auto &e : d.entries())
        EXPECT_GE(out.probability(e.outcome), 0.0);
}

TEST(Hammer, ImprovesPstOnBvLikeDistribution)
{
    const Bits key = 0b1111111111;
    const Distribution d = bvLikeDistribution(10, key);
    const Distribution out = reconstruct(d);
    EXPECT_GT(hammer::metrics::pst(out, {key}),
              hammer::metrics::pst(d, {key}))
        << "HAMMER should boost the correct outcome's probability";
}

TEST(Hammer, ImprovesIstOnBvLikeDistribution)
{
    const Bits key = 0b1111111111;
    const Distribution d = bvLikeDistribution(10, key);
    const Distribution out = reconstruct(d);
    EXPECT_GT(hammer::metrics::ist(out, {key}),
              hammer::metrics::ist(d, {key}))
        << "the gap to the dominant incorrect outcome should shrink";
}

TEST(Hammer, IstGainExceedsPstGain)
{
    // Paper Fig. 8: the IST improvement (gmean 1.74x) is larger than
    // the PST improvement (gmean 1.38x) — HAMMER attenuates the
    // dominant incorrect outcome on top of boosting the correct one.
    const Bits key = 0b1111111111;
    for (double eps : {0.03, 0.05, 0.08}) {
        const Distribution d = bvLikeDistribution(10, key, eps, 0.12);
        const Distribution out = reconstruct(d);
        const double pst_gain = hammer::metrics::pst(out, {key}) /
                                hammer::metrics::pst(d, {key});
        const double ist_gain = hammer::metrics::ist(out, {key}) /
                                hammer::metrics::ist(d, {key});
        EXPECT_GT(ist_gain, pst_gain) << "eps " << eps;
    }
}

TEST(Hammer, ReducesEhdOnBvLikeDistribution)
{
    const Bits key = 0b1111111111;
    const Distribution d = bvLikeDistribution(10, key);
    const Distribution out = reconstruct(d);
    EXPECT_LT(expectedHammingDistance(out, {key}),
              expectedHammingDistance(d, {key}));
}

TEST(Hammer, CrushesUnstructuredSingletons)
{
    const Bits key = 0b1111111111;
    const Distribution d = bvLikeDistribution(10, key);
    const Distribution out = reconstruct(d);
    // The isolated far-tail outcome (all-zeros) has no neighbourhood;
    // its relative probability must drop.
    EXPECT_LT(out.probability(0) / d.probability(0), 1.0);
}

TEST(Hammer, SingleOutcomeIsFixedPoint)
{
    Distribution d(4);
    d.set(0b1010, 1.0);
    const Distribution out = reconstruct(d);
    EXPECT_EQ(out.support(), 1u);
    EXPECT_NEAR(out.probability(0b1010), 1.0, 1e-12);
}

TEST(Hammer, DeterministicAcrossCalls)
{
    const Distribution d = bvLikeDistribution(8, 0b10101010);
    const Distribution a = reconstruct(d);
    const Distribution b = reconstruct(d);
    ASSERT_EQ(a.support(), b.support());
    for (const auto &e : a.entries())
        EXPECT_DOUBLE_EQ(e.probability, b.probability(e.outcome));
}

TEST(Hammer, RejectsUnnormalisedInput)
{
    Distribution d(3);
    d.set(0b000, 0.4);
    d.set(0b111, 0.4);
    EXPECT_THROW(reconstruct(d), std::invalid_argument);
}

TEST(Hammer, RejectsEmptyInput)
{
    Distribution d(3);
    EXPECT_THROW(reconstruct(d), std::invalid_argument);
}

TEST(Hammer, StatsReportOperationCounts)
{
    // Only the all-zeros outcome lies at distance 8 from the key, so
    // the least probable tie group holds one outcome (|L| = 1): the
    // rule keeps this input on the scan path, whose pair counts are
    // pinned here.
    const Distribution d = bvLikeDistribution(8, 0b11111111);
    HammerStats stats;
    reconstruct(d, {}, &stats);
    EXPECT_EQ(stats.path, HammerPath::Scan);
    EXPECT_EQ(stats.uniqueOutcomes, d.support());
    EXPECT_EQ(stats.maxDistance, 3); // floor((8-1)/2)
    // Steps 1 and 3 share one pass over the unordered pairs.
    const auto n = static_cast<std::uint64_t>(d.support());
    EXPECT_EQ(stats.pairOperations, n * (n - 1) / 2);
    ASSERT_EQ(stats.weights.size(), 4u);
    EXPECT_GT(stats.aggregateChs[0], 0.0);

    // Without the filter every row also scans the pairs before it.
    HammerConfig no_filter;
    no_filter.filterLowerProbability = false;
    reconstruct(d, no_filter, &stats);
    EXPECT_EQ(stats.pairOperations, n * (n - 1));
}

TEST(Hammer, RadiusZeroSquaresProbabilities)
{
    // With no neighbourhood, score(x) == P(x), so the multiplicative
    // update is a pure P^2 renormalisation.
    Distribution d(4);
    d.set(0b0000, 0.5);
    d.set(0b1111, 0.3);
    d.set(0b1010, 0.2);
    HammerConfig config;
    config.maxDistance = 0;
    const Distribution out = reconstruct(d, config);
    const double z = 0.25 + 0.09 + 0.04;
    EXPECT_NEAR(out.probability(0b0000), 0.25 / z, 1e-12);
    EXPECT_NEAR(out.probability(0b1111), 0.09 / z, 1e-12);
    EXPECT_NEAR(out.probability(0b1010), 0.04 / z, 1e-12);
}

TEST(Hammer, NeighborhoodScoreMatchesReconstructInternals)
{
    const Distribution d = figure6Distribution();
    EXPECT_NEAR(neighborhoodScore(d, 0b111),
                0.30 + (5.0 / 12.0) * 0.15, 1e-12);
    EXPECT_NEAR(neighborhoodScore(d, 0b001), 0.05, 1e-12);
}

TEST(Hammer, FilterOffLetsLowProbOutcomesBorrow)
{
    const Distribution d = figure6Distribution();
    HammerConfig no_filter;
    no_filter.filterLowerProbability = false;
    // Outcome 001 sits next to the rich 101 neighbourhood; without
    // the filter it gains score it cannot get with the filter on.
    EXPECT_GT(neighborhoodScore(d, 0b001, no_filter),
              neighborhoodScore(d, 0b001, {}));
}

TEST(Hammer, UniformWeightAblationDiffersFromPaperScheme)
{
    const Distribution d = bvLikeDistribution(8, 0b11111111);
    HammerConfig uniform;
    uniform.weightScheme = WeightScheme::Uniform;
    const Distribution paper_out = reconstruct(d);
    const Distribution uniform_out = reconstruct(d, uniform);
    double max_diff = 0.0;
    for (const auto &e : paper_out.entries()) {
        max_diff = std::max(max_diff,
                            std::abs(e.probability -
                                     uniform_out.probability(e.outcome)));
    }
    EXPECT_GT(max_diff, 1e-6);
}

TEST(Hammer, InverseBinomialWeightsAreValid)
{
    const Distribution d = bvLikeDistribution(8, 0b11111111);
    HammerConfig config;
    config.weightScheme = WeightScheme::InverseBinomial;
    const Distribution out = reconstruct(d, config);
    EXPECT_TRUE(out.normalized(1e-9));
}

TEST(Hammer, AdditiveCombineKeepsScoresAsProbabilities)
{
    const Distribution d = figure6Distribution();
    HammerConfig additive;
    additive.scoreCombine = ScoreCombine::Additive;
    const Distribution out = reconstruct(d, additive);
    EXPECT_TRUE(out.normalized(1e-9));
    // Additive keeps 101 on top but by a smaller multiplicative
    // factor than the baseline squaring does.
    EXPECT_GT(out.probability(0b101), out.probability(0b111));
}

TEST(Hammer, MaxDistanceBeyondWidthRejected)
{
    const Distribution d = figure6Distribution();
    HammerConfig config;
    config.maxDistance = 4;
    EXPECT_THROW(reconstruct(d, config), std::invalid_argument);
}

TEST(Hammer, IterativeOnePassEqualsReconstruct)
{
    const Distribution d = bvLikeDistribution(8, 0b11111111);
    const Distribution once = reconstruct(d);
    const Distribution iter = reconstructIterative(d, 1);
    for (const auto &e : once.entries())
        EXPECT_NEAR(e.probability, iter.probability(e.outcome), 1e-12);
}

TEST(Hammer, IterativeSharpensFurther)
{
    const Bits key = 0b1111111111;
    const Distribution d = bvLikeDistribution(10, key);
    const double pst1 =
        hammer::metrics::pst(reconstructIterative(d, 1), {key});
    const double pst3 =
        hammer::metrics::pst(reconstructIterative(d, 3), {key});
    EXPECT_GT(pst3, pst1)
        << "extra passes should keep concentrating the cluster";
}

TEST(Hammer, IterativeRejectsZeroPasses)
{
    const Distribution d = figure6Distribution();
    EXPECT_THROW(reconstructIterative(d, 0), std::invalid_argument);
}

TEST(Hammer, MatchesAlgorithm1UnderEveryConfig)
{
    // Every HammerConfig against the written-out reference, on a
    // tie-heavy sampled histogram (the tie groups decide which pairs
    // the filter admits) and a tie-free unfolded one.  With the
    // filter, the tied input takes the transform path; the untied one
    // and every filter-off config take the scan.
    const Distribution tied =
        sampledHistogram(11, 0b10110011101, 0.2, 1500, 5);
    const Distribution untied = unfoldedHistogram();
    std::set<double> distinct;
    for (const Entry &e : untied.entries())
        distinct.insert(e.probability);
    ASSERT_EQ(distinct.size(), untied.support()) << "must be tie-free";
    std::size_t one_shot = 0;
    for (const Entry &e : tied.entries())
        one_shot += e.probability == 1.0 / 1500 ? 1 : 0;
    ASSERT_GT(2 * one_shot, tied.support())
        << "most outcomes must be one-shot ties";

    for (const Distribution *d : {&tied, &untied}) {
        for (int radius : {-1, 0, 1, 3}) {
            for (bool filter : {true, false}) {
                for (auto scheme : {WeightScheme::InverseChs,
                                    WeightScheme::Uniform,
                                    WeightScheme::InverseBinomial}) {
                    for (auto combine : {ScoreCombine::Multiplicative,
                                         ScoreCombine::Additive}) {
                        HammerConfig config;
                        config.maxDistance = radius;
                        config.filterLowerProbability = filter;
                        config.weightScheme = scheme;
                        config.scoreCombine = combine;
                        HammerStats stats;
                        const Distribution got =
                            reconstruct(*d, config, &stats);
                        const Distribution want = algorithm1(*d, config);
                        EXPECT_EQ(stats.path, d == &tied && filter
                                                  ? HammerPath::Transform
                                                  : HammerPath::Scan)
                            << "radius " << radius << " filter " << filter;
                        ASSERT_EQ(got.support(), want.support());
                        for (const Entry &e : want.entries()) {
                            const double g = got.probability(e.outcome);
                            ASSERT_LE(std::abs(g - e.probability),
                                      1e-12 * std::max(g, e.probability))
                                << (d == &tied ? "tied" : "untied")
                                << " radius " << radius << " filter "
                                << filter << " scheme "
                                << static_cast<int>(scheme) << " combine "
                                << static_cast<int>(combine);
                        }
                    }
                }
            }
        }
    }
}

TEST(Hammer, ParallelReconstructBitIdenticalAcrossThreadCounts)
{
    // The data-layer contract: the sorted support is partitioned in
    // fixed-size row chunks whose CHS partials reduce in a fixed tree
    // order, and the transforms run on the calling thread, so any
    // worker count — including non-power-of-two — produces
    // byte-identical output on either path.
    const Bits key = (Bits{1} << 12) - 1;
    const std::pair<Distribution, HammerPath> inputs[] = {
        {bvLikeDistribution(12, key, 0.05, 0.08), HammerPath::Scan},
        {sampledHistogram(12, key, 0.2, 2000, 3), HammerPath::Transform}};
    for (const auto &[d, path] : inputs) {
        ASSERT_GT(d.support(), 256u) << "need several scan chunks";
        HammerConfig serial;
        serial.threads = 1;
        HammerStats serial_stats;
        const Distribution reference =
            reconstruct(d, serial, &serial_stats);
        EXPECT_EQ(serial_stats.path, path);
        for (int threads : {2, 3, 4}) {
            HammerConfig config;
            config.threads = threads;
            HammerStats stats;
            const Distribution out = reconstruct(d, config, &stats);
            expectBitIdentical(out, stats, reference, serial_stats,
                               std::to_string(threads) + " threads");
        }
    }
}

TEST(Hammer, BitIdenticalAcrossKernelTiers)
{
    // Every tier compiles the same scan source and sums in the same
    // lane order, and the transforms are tier-independent code, so
    // forcing any supported tier — at any thread count — reproduces
    // the scalar single-thread output exactly on both paths (the
    // filter-on run takes the transform, the filter-off run the
    // scan).
    const Bits key = (Bits{1} << 12) - 1;
    const Distribution d = sampledHistogram(12, key, 0.2, 2000, 9);
    for (bool filter : {true, false}) {
        HammerConfig serial;
        serial.threads = 1;
        serial.filterLowerProbability = filter;
        HammerStats ref_stats;
        Distribution reference(12);
        {
            TierGuard guard(KernelTier::Scalar);
            ASSERT_EQ(hammerScanTier(), KernelTier::Scalar);
            reference = reconstruct(d, serial, &ref_stats);
        }
        EXPECT_EQ(ref_stats.path,
                  filter ? HammerPath::Transform : HammerPath::Scan);
        for (const KernelTier tier : hammer::common::supportedTiers()) {
            TierGuard guard(tier);
            for (int threads : {1, 2, 3, 4}) {
                HammerConfig config = serial;
                config.threads = threads;
                HammerStats stats;
                const Distribution out = reconstruct(d, config, &stats);
                expectBitIdentical(
                    out, stats, reference, ref_stats,
                    std::string(hammer::common::tierName(tier)) + ", " +
                        std::to_string(threads) + " threads, filter " +
                        std::to_string(filter));
            }
        }
    }
}

// HammerTransform: the transform path against the forced scan, and
// the rule that picks it.

TEST(HammerTransform, MatchesForcedScanOnChannelHistograms)
{
    // sweep-hammer's BV classes: 16,384 shots (dyadic probabilities)
    // and 16,000 (not).  The scan's own rounding over its ~10^7 pairs
    // is most of the difference.
    for (const char *workload : {"bv:14:00100100001111",
                                 "bv:15:100011010010010",
                                 "bv:16:1001010000010101"}) {
        for (int shots : {16384, 16000}) {
            const Distribution d = channelHistogram(workload, shots, 3);
            ASSERT_GT(d.support(), 3500u) << workload;
            HammerStats stats;
            const Distribution out = reconstruct(d, {}, &stats);
            EXPECT_EQ(stats.path, HammerPath::Transform) << workload;
            HammerStats scan_stats;
            const Distribution scanned = detail::reconstructOnPath(
                HammerPath::Scan, d, {}, &scan_stats);
            EXPECT_EQ(scan_stats.path, HammerPath::Scan);
            expectAgree(out, stats, scanned, scan_stats, 1e-12,
                        std::string(workload) + " at " +
                            std::to_string(shots) + " shots");
            // The residual scan visits a few percent of the pairs.
            EXPECT_LT(20 * stats.pairOperations, scan_stats.pairOperations)
                << workload;
        }
    }
}

TEST(HammerTransform, EdgeSupportsMatchAlgorithm1)
{
    // Every outcome tied (no rows above L, so no residual scan), and
    // a random code with no two outcomes at distance 1: its CHS_1 must
    // come out exactly 0, not rounding residue, or W_1 = 1 / CHS_1
    // would be ~1e15 and swamp every score.
    std::vector<Entry> uniform;
    for (Bits x = 0; x < 512; ++x)
        uniform.push_back({x, 1.0 / 512});
    hammer::common::Rng rng(1);
    std::set<Bits> code;
    for (int draw = 0; draw < 4000 && code.size() < 300; ++draw) {
        const Bits x = rng.uniformInt(1024);
        bool apart = true;
        for (const Bits y : code)
            apart = apart && hammer::common::hammingDistance(x, y) >= 2;
        if (apart)
            code.insert(x);
    }
    std::vector<Entry> coded;
    for (const Bits x : code)
        coded.push_back({x, rng.uniform() < 0.2 ? 3.0 : 1.0});
    Distribution all_tied = Distribution::fromSorted(9, std::move(uniform));
    Distribution distance2 = Distribution::fromSorted(10, std::move(coded));
    distance2.normalize();
    for (const Distribution *d : {&all_tied, &distance2}) {
        for (auto scheme :
             {WeightScheme::InverseChs, WeightScheme::InverseBinomial}) {
            HammerConfig config;
            config.weightScheme = scheme;
            HammerStats stats;
            const Distribution got = reconstruct(*d, config, &stats);
            EXPECT_EQ(stats.path, HammerPath::Transform);
            const Distribution want = algorithm1(*d, config);
            for (const Entry &e : want.entries())
                EXPECT_LE(relativeDifference(got.probability(e.outcome),
                                             e.probability),
                          1e-12);
        }
    }
    HammerStats stats;
    reconstruct(distance2, {}, &stats);
    EXPECT_EQ(stats.aggregateChs[1], 0.0);
    EXPECT_EQ(stats.weights[1], 0.0);
    reconstruct(all_tied, {}, &stats);
    EXPECT_EQ(stats.pairOperations, 0u) << "no rows above L to scan";
}

TEST(HammerTransform, RuleIsAFixedFunctionOfTheSupportShape)
{
    // hammerPathFor(n, N, M, filter) on perfbench-sized shapes.
    EXPECT_EQ(detail::hammerPathFor(16, 4700, 560, true),
              HammerPath::Transform); // BV-16
    EXPECT_EQ(detail::hammerPathFor(14, 4400, 900, true),
              HammerPath::Transform); // BV-14
    // GHZ-18: 2^18 / N ~ 79 entries per outcome, past the cap of 64.
    EXPECT_EQ(detail::hammerPathFor(18, 3300, 530, true),
              HammerPath::Scan);
    EXPECT_EQ(detail::hammerPathFor(16, 4700, 560, false),
              HammerPath::Scan); // filter off
    EXPECT_EQ(detail::hammerPathFor(16, 4700, 4699, true),
              HammerPath::Scan); // tie-free: |L| = 1
    EXPECT_EQ(detail::hammerPathFor(21, 1u << 20, 1000, true),
              HammerPath::Scan); // too wide for the scratch
    EXPECT_EQ(detail::hammerPathFor(64, 1u << 20, 1000, true),
              HammerPath::Scan);
    EXPECT_EQ(detail::hammerPathFor(12, 300, 100, true),
              HammerPath::Scan); // the transform cannot pay

    // And through reconstruct(): a BV-16 channel histogram takes the
    // transform, a GHZ-18 one and a tie-free one the scan, at every
    // thread count and tier; filter off, BV-16 takes the scan too.
    const Distribution bv16 =
        channelHistogram("bv:16:1001010000010101", 16384, 5);
    const Distribution ghz18 = channelHistogram("ghz:18", 32768, 5);
    const Distribution untied = unfoldedHistogram();
    const std::pair<const Distribution *, HammerPath> cases[] = {
        {&bv16, HammerPath::Transform},
        {&ghz18, HammerPath::Scan},
        {&untied, HammerPath::Scan}};
    for (const KernelTier tier : hammer::common::supportedTiers()) {
        TierGuard guard(tier);
        for (int threads : {1, 2, 3, 4}) {
            for (const auto &[d, path] : cases) {
                HammerConfig config;
                config.threads = threads;
                HammerStats stats;
                reconstruct(*d, config, &stats);
                EXPECT_EQ(stats.path, path)
                    << hammer::common::tierName(tier) << ", " << threads
                    << " threads, N " << d->support();
            }
        }
    }
    HammerConfig no_filter;
    no_filter.filterLowerProbability = false;
    HammerStats stats;
    reconstruct(bv16, no_filter, &stats);
    EXPECT_EQ(stats.path, HammerPath::Scan);
}

TEST(HammerTransform, ForcedTransformNeedsTheFilterAndANarrowRegister)
{
    const Distribution d = sampledHistogram(11, 0b10110011101, 0.2,
                                            1500, 5);
    HammerConfig no_filter;
    no_filter.filterLowerProbability = false;
    EXPECT_THROW(
        detail::reconstructOnPath(HammerPath::Transform, d, no_filter),
        std::invalid_argument);
    Distribution wide(21);
    wide.set(0, 0.5);
    wide.set(1, 0.25);
    wide.set(2, 0.25);
    EXPECT_THROW(detail::reconstructOnPath(HammerPath::Transform, wide),
                 std::invalid_argument);
}

// HammerFast: reconstruct's fast path — the pair-scan kernel of
// every supported ISA tier — on the edge cases of its input.

TEST(HammerFast, SingleOutcomeFixedPoint)
{
    Distribution d(6);
    d.set(0b101010, 1.0);
    for (const KernelTier tier : hammer::common::supportedTiers()) {
        TierGuard guard(tier);
        const Distribution out = reconstruct(d);
        EXPECT_EQ(out.support(), 1u) << hammer::common::tierName(tier);
        EXPECT_NEAR(out.probability(0b101010), 1.0, 1e-12)
            << hammer::common::tierName(tier);
    }
}

TEST(HammerFast, RejectsBadInput)
{
    for (const KernelTier tier : hammer::common::supportedTiers()) {
        TierGuard guard(tier);
        Distribution d(4);
        EXPECT_THROW(reconstruct(d), std::invalid_argument)
            << hammer::common::tierName(tier);
        d.set(0, 0.5);
        EXPECT_THROW(reconstruct(d), std::invalid_argument)
            << hammer::common::tierName(tier);
    }
}

TEST(HammerFast, ParallelReconstructFastBitIdenticalAcrossThreadCounts)
{
    // The fastest supported tier, as dispatched by default.
    const Bits key = (Bits{1} << 12) - 1;
    const Distribution d = bvLikeDistribution(12, key, 0.05, 0.08);
    TierGuard guard(hammer::common::bestSupportedTier());

    HammerConfig serial;
    serial.threads = 1;
    HammerStats serial_stats;
    const Distribution reference = reconstruct(d, serial, &serial_stats);

    for (int threads : {2, 4}) {
        HammerConfig config;
        config.threads = threads;
        HammerStats stats;
        const Distribution out = reconstruct(d, config, &stats);
        expectBitIdentical(out, stats, reference, serial_stats,
                           std::to_string(threads) + " threads");
    }
}

TEST(Hammer, BitPermutationEquivariance)
{
    // Relabelling qubits commutes with reconstruction: HAMMER only
    // sees Hamming geometry, which is permutation invariant.
    const Distribution d = figure6Distribution();
    auto permute = [](Bits x) {
        // Rotate the 3 bits left by one.
        return ((x << 1) | (x >> 2)) & 0b111;
    };
    Distribution pd(3);
    for (const auto &e : d.entries())
        pd.set(permute(e.outcome), e.probability);

    const Distribution out = reconstruct(d);
    const Distribution pout = reconstruct(pd);
    for (const auto &e : out.entries()) {
        EXPECT_NEAR(e.probability, pout.probability(permute(e.outcome)),
                    1e-12);
    }
}

TEST(Hammer, ComplementEquivariance)
{
    // Flipping every bit of every outcome is a Hamming isometry.
    const int n = 6;
    const Bits mask = (Bits{1} << n) - 1;
    const Distribution d = bvLikeDistribution(n, mask, 0.07, 0.06);
    Distribution cd(n);
    for (const auto &e : d.entries())
        cd.set(e.outcome ^ mask, e.probability);

    const Distribution out = reconstruct(d);
    const Distribution cout_ = reconstruct(cd);
    for (const auto &e : out.entries()) {
        EXPECT_NEAR(e.probability, cout_.probability(e.outcome ^ mask),
                    1e-12);
    }
}

class HammerWidthProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(HammerWidthProperty, PstNeverDegradesOnClusteredNoise)
{
    // For any width, a distribution whose errors are strictly
    // clustered around the key must see PST improve.
    const int n = GetParam();
    const Bits key = (Bits{1} << n) - 1;
    Distribution d(n);
    d.set(key, 0.2);
    for (int q = 0; q < n; ++q)
        d.set(key ^ (Bits{1} << q), 0.5 / n);
    d.set(0, 0.3); // unstructured singleton
    d.normalize();

    const Distribution out = reconstruct(d);
    EXPECT_GE(hammer::metrics::pst(out, {key}),
              hammer::metrics::pst(d, {key}))
        << "width " << n;
}

INSTANTIATE_TEST_SUITE_P(Widths, HammerWidthProperty,
                         ::testing::Values(4, 6, 8, 10, 12, 14, 16));

} // namespace
