/**
 * @file
 * Reference tests for the distribution memo, one concern each:
 *
 *  - the prefix resolver against the algorithm it replaces: given the
 *    same draws it picks, outcome for outcome, the basis state
 *    StateVector::sampleShots' sweep picks (dense, 1-2 nonzero,
 *    below-rounding entries, draws at or past the total);
 *  - `channel` on a memo hit against a cold run, and against the
 *    state-vector sweep itself under the ideal model;
 *  - the byte budget and LRU order, the oversized entry that is
 *    served but not kept, one evolution per `exact` key, and
 *    concurrent first requests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "circuits/bv.hpp"
#include "circuits/coupling.hpp"
#include "circuits/ghz.hpp"
#include "circuits/mirror.hpp"
#include "circuits/qaoa_circuit.hpp"
#include "circuits/transpiler.hpp"
#include "core/distribution.hpp"
#include "graph/generators.hpp"
#include "noise/channel_sampler.hpp"
#include "noise/distribution_memo.hpp"
#include "noise/exact_sampler.hpp"
#include "sim/simulator.hpp"
#include "sim/statevector.hpp"

namespace {

using hammer::common::Bits;
using hammer::common::Rng;
using hammer::core::CountAccumulator;
using hammer::core::Distribution;
using hammer::sim::Amp;
using hammer::sim::StateVector;
using namespace hammer::circuits;
using namespace hammer::noise;

void
expectIdentical(const Distribution &a, const Distribution &b,
                const std::string &what)
{
    ASSERT_EQ(a.numBits(), b.numBits()) << what;
    ASSERT_EQ(a.support(), b.support()) << what;
    for (std::size_t i = 0; i < a.entries().size(); ++i) {
        EXPECT_EQ(a.entries()[i].outcome, b.entries()[i].outcome)
            << what;
        EXPECT_EQ(a.entries()[i].probability,
                  b.entries()[i].probability)
            << what;
    }
}

/** An empty circuit on @p layout: outcomes are permuted indices. */
RoutedCircuit
layoutOnly(std::vector<int> layout)
{
    const int n = static_cast<int>(layout.size());
    return RoutedCircuit{hammer::sim::Circuit(n), std::move(layout)};
}

/**
 * Resolve 4000 draws `uniform * norm * @p scale` and compare each with
 * the sweep's pick for the same draw (scale > 1 puts draws past the
 * total).
 */
void
expectResolverMatchesSweep(const StateVector &state,
                           const RoutedCircuit &routed, double scale,
                           const std::string &what)
{
    const CleanDistribution clean(state, routed);
    ASSERT_EQ(clean.norm(), state.normSquared()) << what;
    const double total = clean.norm() * scale;
    constexpr int kShots = 4000;
    Rng sweep_rng(21), resolve_rng(21);
    const std::vector<Bits> swept =
        state.sampleShots(sweep_rng, kShots, total);
    for (int s = 0; s < kShots; ++s) {
        const Bits got = clean.resolve(resolve_rng.uniform() * total);
        ASSERT_EQ(got, routed.toLogical(swept[static_cast<std::size_t>(s)]))
            << what << ", shot " << s;
    }
}

TEST(DistributionMemo, PrefixResolverMatchesTheSweep)
{
    const auto identity = [](int n) {
        std::vector<int> layout(static_cast<std::size_t>(n));
        for (int q = 0; q < n; ++q)
            layout[static_cast<std::size_t>(q)] = q;
        return layoutOnly(layout);
    };
    const RoutedCircuit permuted = layoutOnly({3, 0, 5, 1, 7, 2, 6, 4});

    // Random dense states, unnormalised (draws scale by the norm).
    Rng amp_rng(5);
    for (const int n : {3, 8, 11}) {
        StateVector dense(n);
        for (Bits i = 0; i < dense.dimension(); ++i)
            dense.setAmplitude(i, Amp{amp_rng.normal(), amp_rng.normal()});
        const std::string what = "dense n=" + std::to_string(n);
        expectResolverMatchesSweep(dense, identity(n), 1.0, what);
        EXPECT_EQ(CleanDistribution(dense, identity(n)).support(),
                  dense.dimension())
            << what;
        if (n == 8)
            expectResolverMatchesSweep(dense, permuted, 1.0, what);
    }

    // One nonzero (BV), two nonzeros (GHZ), from real circuits.
    const StateVector bv =
        hammer::sim::runCircuit(bernsteinVazirani(9, 0b101100101));
    EXPECT_EQ(CleanDistribution(bv, identity(10)).support(), 1u);
    expectResolverMatchesSweep(bv, identity(10), 1.0, "bv");
    const StateVector ghz_state = hammer::sim::runCircuit(ghz(8));
    EXPECT_EQ(CleanDistribution(ghz_state, permuted).support(), 2u);
    expectResolverMatchesSweep(ghz_state, permuted, 1.0, "ghz");

    // Entries too small to move the running sum are never picked; a
    // subnormal first entry does move it (0 -> 1e-320) and is kept.
    StateVector tiny(6);
    tiny.setAmplitude(0, Amp{1e-160, 0.0});
    tiny.setAmplitude(3, Amp{0.6, 0.0});
    for (Bits i = 4; i < 40; ++i)
        tiny.setAmplitude(i, Amp{1e-9, 1e-9});
    tiny.setAmplitude(41, Amp{0.0, 0.8});
    tiny.setAmplitude(50, Amp{1e-7, 0.0});
    const CleanDistribution tiny_clean(tiny, identity(6));
    EXPECT_EQ(tiny_clean.support(), 4u)
        << "indices 0, 3, 41 and the 1e-14 entry at 50";
    expectResolverMatchesSweep(tiny, identity(6), 1.0, "tiny");

    // Draws at or past the total land on the last basis state.
    expectResolverMatchesSweep(ghz_state, permuted, 1.5, "past total");
    expectResolverMatchesSweep(tiny, identity(6), 2.0, "past total");
    EXPECT_EQ(tiny_clean.resolve(tiny_clean.norm()), Bits{63});
    EXPECT_EQ(CleanDistribution(ghz_state, permuted).resolve(1e300),
              permuted.toLogical(255));

    // The all-zero state: every draw is the fallback, as in the sweep.
    StateVector zero(4);
    zero.setAmplitude(0, Amp{0.0, 0.0});
    EXPECT_EQ(CleanDistribution(zero, identity(4)).support(), 0u);
    expectResolverMatchesSweep(zero, identity(4), 1.0, "zero");
}

/** The four circuit families, routed onto sparse couplings. */
std::vector<std::pair<std::string, RoutedCircuit>>
familyCircuits()
{
    Rng rng(17);
    return {
        {"bv", transpile(bernsteinVazirani(8, 0b10110101),
                         CouplingMap::line(9))},
        {"ghz", transpile(ghz(10), CouplingMap::ring(10))},
        {"qaoa", transpile(qaoaCircuit(hammer::graph::ring(8),
                                       linearRampParams(2)),
                           CouplingMap::line(8))},
        {"mirror",
         transpile(randomMirrorCircuit(7, 3, 0.6, rng).full,
                   CouplingMap::line(7))},
    };
}

int
measuredBits(const std::pair<std::string, RoutedCircuit> &family)
{
    // BV's ancilla is the last logical qubit and is not measured.
    const int n = family.second.circuit.numQubits();
    return family.first == "bv" ? n - 1 : n;
}

TEST(DistributionMemo, ChannelHitEqualsAColdRun)
{
    ChannelSampler sampler(machinePreset("machineB"));
    DistributionMemo &memo = DistributionMemo::shared();
    for (const auto &family : familyCircuits()) {
        const RoutedCircuit &routed = family.second;
        const int measured = measuredBits(family);
        for (const int threads : {0, 1, 3}) {
            // threads 0 runs the serial sample(), else sampleBatch().
            const auto draw = [&](Rng &rng) {
                return threads == 0
                    ? sampler.sample(routed, measured, 3000, rng)
                    : sampler.sampleBatch(routed, measured, 5000, rng,
                                          threads);
            };
            const std::string what =
                family.first + ", threads " + std::to_string(threads);
            memo.clear();
            Rng cold_rng(99);
            const Distribution cold = draw(cold_rng);
            ASSERT_EQ(memo.stats().misses, 1u) << what;
            Rng warm_rng(99);
            const Distribution warm = draw(warm_rng);
            EXPECT_EQ(memo.stats().hits, 1u) << what;
            EXPECT_EQ(memo.stats().entries, 1u) << what;
            expectIdentical(cold, warm, what);
            EXPECT_EQ(cold_rng(), warm_rng()) << what;
        }
    }
}

TEST(DistributionMemo, IdealChannelIsTheStateVectorSweep)
{
    // Under the ideal model the channel draws no noise, so its
    // histogram is the sweep's: sample() on one stream, sampleBatch()
    // on 1024-shot chunks of forked streams.
    ChannelSampler sampler(NoiseModel{0.0, 0.0, 0.0, 0.0});
    for (const auto &family : familyCircuits()) {
        const RoutedCircuit &routed = family.second;
        const int measured = measuredBits(family);
        const Bits mask = (Bits{1} << measured) - 1;
        const StateVector state = hammer::sim::runCircuit(routed.circuit);
        const double norm = state.normSquared();

        CountAccumulator serial_want;
        Rng want_rng(4);
        for (const Bits physical : state.sampleShots(want_rng, 3000, norm))
            serial_want.add(routed.toLogical(physical) & mask);
        Rng rng(4);
        expectIdentical(sampler.sample(routed, measured, 3000, rng),
                        serial_want.toDistribution(measured),
                        family.first + " sample");

        constexpr int kShots = 5000;
        CountAccumulator batch_want;
        Rng batch_rng(6);
        const Rng master = batch_rng.split();
        for (int c = 0; c * 1024 < kShots; ++c) {
            Rng stream = master.fork(static_cast<std::uint64_t>(c));
            const int quota = std::min(1024, kShots - c * 1024);
            for (const Bits physical :
                 state.sampleShots(stream, quota, norm))
                batch_want.add(routed.toLogical(physical) & mask);
        }
        Rng batch_got_rng(6);
        expectIdentical(
            sampler.sampleBatch(routed, measured, kShots, batch_got_rng, 3),
            batch_want.toDistribution(measured),
            family.first + " sampleBatch");
    }
}

/**
 * H on every qubit then Ry(@p theta) on qubit 0: a dense state whose
 * probabilities, not only its key, differ from angle to angle.
 */
RoutedCircuit
denseCircuit(int n, double theta)
{
    hammer::sim::Circuit circuit(n);
    for (int q = 0; q < n; ++q)
        circuit.h(q);
    circuit.ry(0, theta);
    return trivialRouting(circuit);
}

/** The outcomes @p clean resolves 199 evenly spaced draws to. */
std::vector<Bits>
picksOf(const CleanDistribution &clean)
{
    std::vector<Bits> picks;
    for (int k = 0; k < 199; ++k)
        picks.push_back(clean.resolve(clean.norm() * (k + 0.5) / 199));
    return picks;
}

TEST(DistributionMemo, NeverExceedsItsByteBudgetAndEvictsLeastRecentFirst)
{
    // Size the budget from one entry: it holds three of them.
    std::size_t weight = 0;
    {
        DistributionMemo probe(DistributionMemo::kBudgetBytes);
        probe.clean(denseCircuit(6, 0.0));
        weight = probe.bytes();
        ASSERT_GT(weight, 64u * 16u) << "2^6 outcomes and prefixes";
    }
    DistributionMemo memo(3 * weight + weight / 2);
    const auto fetch = [&](int key) {
        memo.clean(denseCircuit(6, 0.1 * key));
        EXPECT_LE(memo.bytes(), memo.budget());
    };
    fetch(0);
    fetch(1);
    fetch(2);
    EXPECT_EQ(memo.stats().entries, 3u);
    EXPECT_EQ(memo.bytes(), 3 * weight);
    fetch(0); // 1 is now the least recently used
    EXPECT_EQ(memo.stats().hits, 1u);
    fetch(3); // evicts 1
    EXPECT_EQ(memo.stats().entries, 3u);
    fetch(0);
    fetch(2);
    EXPECT_EQ(memo.stats().hits, 3u) << "0 and 2 stayed";
    fetch(1);
    EXPECT_EQ(memo.stats().misses, 5u) << "1 was evicted";
    for (int key = 4; key < 40; ++key)
        fetch(key);
    EXPECT_EQ(memo.stats().entries, 3u);
    EXPECT_LE(memo.bytes(), memo.budget());

    memo.clear();
    EXPECT_EQ(memo.bytes(), 0u);
    EXPECT_EQ(memo.stats().entries, 0u);
    EXPECT_EQ(memo.stats().misses, 0u);
}

TEST(DistributionMemo, ServesButDoesNotKeepAnEntryOverItsBudget)
{
    DistributionMemo small(1024);
    DistributionMemo large(DistributionMemo::kBudgetBytes);
    const RoutedCircuit routed = denseCircuit(8, 0.3);
    const auto served = small.clean(routed);
    const auto kept = large.clean(routed);
    ASSERT_EQ(served->support(), 256u);
    EXPECT_GT(served->bytes(), small.budget());
    EXPECT_EQ(served->norm(), kept->norm());
    for (double draw = 0.0; draw < 1.0; draw += 1.0 / 512)
        EXPECT_EQ(served->resolve(draw), kept->resolve(draw));
    EXPECT_EQ(small.stats().entries, 0u);
    EXPECT_EQ(small.bytes(), 0u);
    small.clean(routed);
    EXPECT_EQ(small.stats().misses, 2u) << "rebuilt, never kept";
    EXPECT_EQ(small.stats().hits, 0u);
}

TEST(DistributionMemo, ChannelAndExactShareOneMemoWithOneBuildPerKey)
{
    DistributionMemo &memo = DistributionMemo::shared();
    memo.clear();
    const RoutedCircuit routed = trivialRouting(ghz(4));
    ChannelSampler channel(machinePreset("machineA"));
    ExactSampler exact(machinePreset("machineA"));
    Rng rng(8);
    for (int repeat = 0; repeat < 3; ++repeat) {
        channel.sampleBatch(routed, 4, 2000, rng, 2);
        exact.sample(routed, 4, 500, rng);
        exact.sample(routed, 3, 500, rng); // another width, another key
    }
    const CacheStats stats = memo.stats();
    EXPECT_EQ(stats.entries, 3u);
    EXPECT_EQ(stats.misses, 3u) << "one build per key";
    EXPECT_EQ(stats.hits, 6u);
    EXPECT_LE(memo.bytes(), memo.budget());
}

TEST(DistributionMemo, ConcurrentRequestsAgreeWithASerialBuild)
{
    // Worker threads race on first requests for the same keys: every
    // caller must get the distribution a serial build computes, and
    // the memo's counters must add up.
    DistributionMemo memo(DistributionMemo::kBudgetBytes);
    std::vector<RoutedCircuit> circuits;
    for (int key = 0; key < 6; ++key)
        circuits.push_back(denseCircuit(7, 0.2 * key));
    constexpr int kThreads = 4;
    constexpr std::size_t kRepeats = 5;
    std::vector<std::vector<Bits>> serial;
    for (const RoutedCircuit &routed : circuits)
        serial.push_back(picksOf(CleanDistribution(
            hammer::sim::runCircuit(routed.circuit), routed)));
    ASSERT_NE(serial[0], serial[1]) << "the keys must differ in content";

    // got[t][i]: thread t's i-th request, for key (i + t) % keys.
    std::vector<std::vector<std::vector<Bits>>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const auto shift = static_cast<std::size_t>(t);
            for (std::size_t i = 0; i < kRepeats * circuits.size();
                 ++i) {
                const RoutedCircuit &routed =
                    circuits[(i + shift) % circuits.size()];
                got[shift].push_back(picksOf(*memo.clean(routed)));
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (std::size_t t = 0; t < got.size(); ++t) {
        for (std::size_t i = 0; i < got[t].size(); ++i)
            EXPECT_EQ(got[t][i], serial[(i + t) % circuits.size()])
                << "thread " << t << ", request " << i;
    }
    const CacheStats stats = memo.stats();
    EXPECT_EQ(stats.entries, circuits.size());
    EXPECT_EQ(stats.hits + stats.misses,
              kThreads * kRepeats * circuits.size());
}

} // namespace
