/**
 * @file
 * Runtime-dispatched SIMD kernel table for the SoA statevector.
 *
 * Every gate kernel operates on separate re/im double planes
 * (structure-of-arrays) of length 2^n, one amplitude per index.
 *
 * One KernelTable per ISA tier (scalar / SSE2 / AVX2 / NEON).  All
 * tiers instantiate the same templated per-lane formulas
 * (kernels_generic.hpp) over a 1/2/4-wide vector abstraction, so a
 * wider tier performs exactly the same IEEE-754 operations per
 * amplitude in the same order — outputs are bit-identical across
 * tiers and thread counts (no FMA contraction anywhere: the build
 * compiles with -ffp-contract=off).
 *
 * The tier itself is chosen by the process-wide probe in
 * common/kernel_tier.hpp (CPUID, or HAMMER_KERNELS for the parity
 * test suite), which HAMMER's pair scan dispatches on too.
 */

#ifndef HAMMER_SIM_KERNELS_HPP
#define HAMMER_SIM_KERNELS_HPP

#include <cstddef>

#include "common/kernel_tier.hpp"

namespace hammer::sim {

using common::bestSupportedTier;
using common::KernelTier;
using common::parseTier;
using common::supportedTiers;
using common::tierCompiled;
using common::tierName;
using common::tierSupported;

/**
 * One ISA tier's kernel set.
 *
 * Matrix/diagonal parameters arrive as unpacked component arrays:
 * m = {m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i} (row-major),
 * d = {d0r, d0i, d1r, d1i}.
 */
struct KernelTable
{
    KernelTier tier;
    int lanes; ///< Doubles per vector register (1, 2 or 4).

    void (*apply1q)(double *re, double *im, std::size_t dim,
                    std::size_t mask, const double *m);
    void (*applyDiag)(double *re, double *im, std::size_t dim,
                      std::size_t mask, const double *d);
    void (*applyPhase)(double *re, double *im, std::size_t dim,
                       std::size_t mask, double pr, double pi);
    void (*applyX)(double *re, double *im, std::size_t dim,
                   std::size_t mask);
    void (*applyY)(double *re, double *im, std::size_t dim,
                   std::size_t mask);
    void (*applyCX)(double *re, double *im, std::size_t dim,
                    std::size_t cmask, std::size_t tmask);
    void (*applyCZ)(double *re, double *im, std::size_t dim,
                    std::size_t amask, std::size_t bmask);
    void (*applySwap)(double *re, double *im, std::size_t dim,
                      std::size_t amask, std::size_t bmask);
};

// Tier tables.  Plain globals with constant initialisation: taking
// the address of an uncallable tier (e.g. kAvx2Kernels on a non-AVX2
// host) executes none of its code.  Only the tiers compiled into this
// build exist; kernelsForTier() is the safe accessor.
extern const KernelTable kScalarKernels;
#if !defined(HAMMER_DISABLE_SIMD)
#if defined(__x86_64__) || defined(_M_X64)
extern const KernelTable kSse2Kernels;
extern const KernelTable kAvx2Kernels;
#endif
#if defined(__aarch64__)
extern const KernelTable kNeonKernels;
#endif
#endif // !HAMMER_DISABLE_SIMD

/** Tier's kernel table, or nullptr when unsupported on this host. */
const KernelTable *kernelsForTier(KernelTier tier);

/** The kernel table of common::activeTier(). */
const KernelTable &activeKernels();

/**
 * Force the process-wide tier to @p table's (nullptr reverts to the
 * probe) via common::setActiveTier(), so HAMMER's pair scan follows
 * too.  Intended for benches and the tier parity tests, not
 * concurrent use while kernels are running.
 */
void setActiveKernels(const KernelTable *table);

} // namespace hammer::sim

#endif // HAMMER_SIM_KERNELS_HPP
