/**
 * @file
 * Cross-tier parity for the runtime-dispatched SIMD kernel table.
 *
 * The contract under test (the bit-identity invariant of the SoA
 * engine): every supported ISA tier — scalar, SSE2, AVX2, NEON —
 * produces EXACTLY the same amplitudes as the scalar reference for
 * every kernel, because all tiers instantiate the same per-lane
 * formulas and the build disables FMA contraction.  EXPECT_EQ on doubles throughout; no tolerances.
 *
 * These tests force tiers in-process via setActiveKernels(), so one
 * binary run covers every tier the host supports.  The ctest
 * tier_parity_* legs additionally re-run the whole suite under
 * HAMMER_KERNELS=<tier> to exercise the env-probe path.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "sim/circuit.hpp"
#include "sim/compiled.hpp"
#include "sim/kernels.hpp"
#include "sim/statevector.hpp"

namespace {

using hammer::common::Rng;
using namespace hammer::sim;

/** Scoped kernel-table override; always reverts to the probe. */
class TierGuard
{
  public:
    explicit TierGuard(KernelTier tier)
    {
        const KernelTable *table = kernelsForTier(tier);
        EXPECT_NE(table, nullptr)
            << "guard must only be built for supported tiers";
        setActiveKernels(table);
    }
    ~TierGuard() { setActiveKernels(nullptr); }
};

StateVector
randomState(int n, Rng &rng)
{
    StateVector sv(n);
    for (std::size_t i = 0; i < sv.dimension(); ++i)
        sv.setAmplitude(i, Amp(rng.uniform(-1.0, 1.0),
                               rng.uniform(-1.0, 1.0)));
    return sv;
}

Mat2
randomMat(Rng &rng)
{
    Mat2 m;
    for (Amp &e : m)
        e = Amp(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    return m;
}

void
expectBitIdentical(const StateVector &got, const StateVector &want,
                   const char *what)
{
    ASSERT_EQ(got.dimension(), want.dimension());
    for (std::size_t i = 0; i < got.dimension(); ++i) {
        ASSERT_EQ(got.amplitude(i).real(), want.amplitude(i).real())
            << what << ": re mismatch at index " << i;
        ASSERT_EQ(got.amplitude(i).imag(), want.amplitude(i).imag())
            << what << ": im mismatch at index " << i;
    }
}

/** Every gate kernel once per qubit. */
void
runAllKernels(StateVector &sv, const Mat2 &m, Rng &rng)
{
    const int qubits = [&] {
        int q = 0;
        for (std::size_t d = sv.dimension(); d > 1; d >>= 1)
            ++q;
        return q;
    }();
    for (int q = 0; q < qubits; ++q) {
        sv.apply1q(m, q);
        sv.applyDiagonal(Amp(0.8, -0.1), Amp(-0.3, 0.95), q);
        sv.applyPhase(Amp(0.6, -0.8), q);
        sv.applyX(q);
        sv.applyY(q);
        if (qubits < 2)
            continue;
        const int p = (q + 1 +
                       static_cast<int>(rng.uniformInt(
                           static_cast<std::uint64_t>(qubits - 1)))) %
            qubits;
        if (p != q) {
            sv.applyCX(q, p);
            sv.applyCZ(q, p);
            sv.applySwap(q, p);
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------------

TEST(KernelDispatch, ScalarAlwaysSupported)
{
    EXPECT_TRUE(tierCompiled(KernelTier::Scalar));
    EXPECT_TRUE(tierSupported(KernelTier::Scalar));
    const auto tiers = supportedTiers();
    ASSERT_FALSE(tiers.empty());
    EXPECT_EQ(tiers.front(), KernelTier::Scalar);
    EXPECT_EQ(tiers.back(), bestSupportedTier());
}

TEST(KernelDispatch, TierNamesRoundTrip)
{
    for (const KernelTier tier :
         {KernelTier::Scalar, KernelTier::Sse2, KernelTier::Avx2,
          KernelTier::Neon}) {
        KernelTier parsed;
        ASSERT_TRUE(parseTier(tierName(tier), parsed));
        EXPECT_EQ(parsed, tier);
    }
    KernelTier parsed;
    EXPECT_FALSE(parseTier("avx512", parsed));
    EXPECT_FALSE(parseTier("", parsed));
}

TEST(KernelDispatch, TablesDeclareTheirTier)
{
    for (const KernelTier tier : supportedTiers()) {
        const KernelTable *table = kernelsForTier(tier);
        ASSERT_NE(table, nullptr);
        EXPECT_EQ(table->tier, tier);
        EXPECT_GE(table->lanes, 1);
    }
}

TEST(KernelDispatch, UnsupportedTierHasNoTable)
{
    for (const KernelTier tier :
         {KernelTier::Sse2, KernelTier::Avx2, KernelTier::Neon}) {
        if (!tierSupported(tier)) {
            EXPECT_EQ(kernelsForTier(tier), nullptr);
        }
    }
}

TEST(KernelDispatch, SetActiveKernelsOverridesAndReverts)
{
    const KernelTable &probed = activeKernels();
    setActiveKernels(&kScalarKernels);
    EXPECT_EQ(activeKernels().tier, KernelTier::Scalar);
    setActiveKernels(nullptr);
    EXPECT_EQ(activeKernels().tier, probed.tier);
}

// ---------------------------------------------------------------------------
// Single-state parity: every supported tier == scalar, exactly
// ---------------------------------------------------------------------------

TEST(TierParity, SingleStateKernelsMatchScalarExactly)
{
    // n in {1..4} exercises the scalar-fallback branches (mask below
    // vector width); n in {6, 9} the vector paths with several
    // iterations of the half/quarter-space loops.
    for (const int n : {1, 2, 3, 4, 6, 9}) {
        Rng seedRng(2000 + n);
        const StateVector init = randomState(n, seedRng);
        const Mat2 m = randomMat(seedRng);

        StateVector want = init;
        {
            TierGuard guard(KernelTier::Scalar);
            Rng r(77);
            runAllKernels(want, m, r);
        }
        for (const KernelTier tier : supportedTiers()) {
            StateVector got = init;
            {
                TierGuard guard(tier);
                Rng r(77);
                runAllKernels(got, m, r);
            }
            expectBitIdentical(got, want, tierName(tier));
        }
    }
}

TEST(TierParity, CompiledCircuitRunMatchesScalarExactly)
{
    Circuit c(7);
    Rng rng(31337);
    for (int i = 0; i < 160; ++i) {
        const int q = static_cast<int>(rng.uniformInt(7));
        const int p = (q + 1 + static_cast<int>(rng.uniformInt(6))) % 7;
        switch (rng.uniformInt(10)) {
          case 0: c.h(q); break;
          case 1: c.x(q); break;
          case 2: c.y(q); break;
          case 3: c.t(q); break;
          case 4: c.rz(q, rng.uniform(-3.0, 3.0)); break;
          case 5: c.ry(q, rng.uniform(-3.0, 3.0)); break;
          case 6: c.cx(q, p); break;
          case 7: c.cz(q, p); break;
          default: c.swap(q, p); break;
        }
    }
    const auto compiled = CompiledCircuit::compile(c);

    StateVector want(7);
    {
        TierGuard guard(KernelTier::Scalar);
        want = compiled.run();
    }
    for (const KernelTier tier : supportedTiers()) {
        TierGuard guard(tier);
        const StateVector got = compiled.run();
        expectBitIdentical(got, want, tierName(tier));
    }
}

TEST(TierParity, SamplingIdenticalAcrossTiers)
{
    Rng seedRng(404);
    const StateVector sv = randomState(8, seedRng);
    std::vector<hammer::common::Bits> want;
    {
        TierGuard guard(KernelTier::Scalar);
        Rng r(55);
        want = sv.sampleShots(r, 512);
    }
    for (const KernelTier tier : supportedTiers()) {
        TierGuard guard(tier);
        Rng r(55);
        EXPECT_EQ(sv.sampleShots(r, 512), want) << tierName(tier);
    }
}

} // namespace
