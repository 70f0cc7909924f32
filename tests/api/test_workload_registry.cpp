/**
 * @file
 * The workload table: spec parsing, round-trips, and boundary
 * validation (unknown names must fail loudly at the API edge).
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "api/workload.hpp"

namespace {

using hammer::api::makeWorkload;
using hammer::api::Workload;
using hammer::common::Bits;
using hammer::common::Rng;

TEST(WorkloadRegistry, GlobalKnowsTheBuiltinFamilies)
{
    // Sorted by family: the text `--list workloads` prints.
    EXPECT_EQ(hammer::api::workloadUsage(),
              "bv:<n>[:<key-bitstring>]\n"
              "ghz:<n>\n"
              "mirror:<n>[:<depth>]\n"
              "qaoa:[<family>:]<n>:<p>  (family: 3reg|rand|ring|grid)");
}

TEST(WorkloadRegistry, BvFixedKeyRoundTrip)
{
    Rng rng(1);
    const Workload w = makeWorkload("bv:6:101101", rng);
    EXPECT_EQ(w.spec, "bv:6:101101");
    EXPECT_EQ(w.family, "bv");
    EXPECT_EQ(w.measuredQubits, 6);
    EXPECT_EQ(w.key, Bits{0b101101});
    ASSERT_EQ(w.correctOutcomes.size(), 1u);
    EXPECT_EQ(w.correctOutcomes[0], Bits{0b101101});
    EXPECT_TRUE(w.isCorrect(0b101101));
    EXPECT_FALSE(w.isCorrect(0b101100));
    // BV uses one ancilla beyond the measured width.
    EXPECT_EQ(w.routed.circuit.numQubits(), 7);
}

TEST(WorkloadRegistry, BvRandomKeyIsDeterministicInTheRng)
{
    Rng rng_a(42), rng_b(42);
    const Workload a = makeWorkload("bv:8", rng_a);
    const Workload b = makeWorkload("bv:8", rng_b);
    EXPECT_EQ(a.key, b.key);
    EXPECT_NE(a.key, 0u) << "the empty key is excluded";
}

TEST(WorkloadRegistry, GhzHasTwoCorrectOutcomes)
{
    Rng rng(1);
    const Workload w = makeWorkload("ghz:5", rng);
    ASSERT_EQ(w.correctOutcomes.size(), 2u);
    EXPECT_TRUE(w.isCorrect(0));
    EXPECT_TRUE(w.isCorrect(0b11111));
    EXPECT_EQ(w.measuredQubits, 5);
}

TEST(WorkloadRegistry, QaoaShorthandDefaultsToThreeRegular)
{
    Rng rng(3);
    const Workload w = makeWorkload("qaoa:8:2", rng);
    EXPECT_EQ(w.family, "qaoa");
    EXPECT_EQ(w.layers, 2);
    EXPECT_EQ(w.graph.numVertices(), 8);
    EXPECT_EQ(w.metadata.at("qaoa_family"), "3reg");
    EXPECT_FALSE(w.correctOutcomes.empty())
        << "small instances get a brute-forced optimum";
    EXPECT_LT(w.minCost, 0.0);
}

TEST(WorkloadRegistry, QaoaGridRoutesSwapFree)
{
    Rng rng(3);
    const Workload w = makeWorkload("qaoa:grid:8:1", rng);
    EXPECT_EQ(w.metadata.at("qaoa_family"), "grid");
    EXPECT_EQ(w.routed.addedSwaps, 0)
        << "grid instances are hardware-native on a grid device";
}

TEST(WorkloadRegistry, MirrorRecordsEntanglingHalf)
{
    Rng rng(9);
    const Workload w = makeWorkload("mirror:6:4", rng);
    EXPECT_EQ(w.measuredQubits, 6);
    ASSERT_TRUE(w.entanglingHalf.has_value());
    EXPECT_EQ(w.entanglingHalf->numQubits(), 6);
    ASSERT_EQ(w.correctOutcomes.size(), 1u);
    EXPECT_EQ(w.correctOutcomes[0], 0u);
    EXPECT_EQ(w.metadata.at("depth"), "4");
}

TEST(WorkloadRegistry, UnknownFamilyThrowsWithTheKnownList)
{
    Rng rng(1);
    try {
        makeWorkload("warp:4", rng);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("warp"), std::string::npos);
        EXPECT_NE(message.find("bv"), std::string::npos)
            << "the error should list the known families";
    }
}

TEST(WorkloadRegistry, MalformedSpecsThrow)
{
    Rng rng(1);
    EXPECT_THROW(makeWorkload("bv:0", rng), std::invalid_argument);
    EXPECT_THROW(makeWorkload("bv:-3", rng), std::invalid_argument);
    EXPECT_THROW(makeWorkload("bv:six", rng), std::invalid_argument);
    EXPECT_THROW(makeWorkload("bv:64", rng), std::invalid_argument)
        << "beyond the simulator width limit";
    EXPECT_THROW(makeWorkload("bv:4:10", rng), std::invalid_argument)
        << "fixed key must have exactly n digits";
    EXPECT_THROW(makeWorkload("bv:4:10x1", rng),
                 std::invalid_argument);
    EXPECT_THROW(makeWorkload("ghz", rng), std::invalid_argument);
    EXPECT_THROW(makeWorkload("qaoa:8", rng), std::invalid_argument);
    EXPECT_THROW(makeWorkload("qaoa:hex:8:2", rng),
                 std::invalid_argument);
    EXPECT_THROW(makeWorkload("mirror:0", rng),
                 std::invalid_argument);
}

TEST(Workload, ConstructorValidatesMeasuredQubits)
{
    hammer::sim::Circuit circuit(3);
    circuit.h(0);
    EXPECT_THROW(
        Workload("custom", circuit,
                 hammer::circuits::CouplingMap::full(3), 0),
        std::invalid_argument);
    EXPECT_THROW(
        Workload("custom", circuit,
                 hammer::circuits::CouplingMap::full(3), 4),
        std::invalid_argument);
    EXPECT_NO_THROW(
        Workload("custom", circuit,
                 hammer::circuits::CouplingMap::full(3), 3));
}

} // namespace
