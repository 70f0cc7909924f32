/**
 * @file
 * HAMMER's pair-scan row kernel and its ISA dispatch (internal to
 * core; reconstruct() is the only caller).
 *
 * One source (pair_scan_kernel.hpp) is compiled once per tier: the
 * scalar TU at the baseline ISA, and the AVX2 TU, whose -mpopcnt
 * turns the inner popcount into one POPCNT instruction instead of a
 * libgcc call.  The tier TUs differ only in instruction selection —
 * every tier performs the same IEEE-754 additions in the same order,
 * so their outputs are bit-identical by construction.
 */

#ifndef HAMMER_CORE_PAIR_SCAN_HPP
#define HAMMER_CORE_PAIR_SCAN_HPP

#include <cstddef>

#include "common/bitops.hpp"
#include "common/kernel_tier.hpp"

namespace hammer::core::detail {

/**
 * Private accumulator lanes per distance bin: pair j adds into lane
 * j % kScanLanes.  Consecutive pairs at the same distance then update
 * different memory, so the small-table scatter does not serialise on
 * one bin, and the summation order stays a function of the input
 * alone (never of the tier or the thread count).
 */
inline constexpr std::size_t kScanLanes = 4;

/**
 * Scan outcome @p x (probability @p px) against sorted entries
 * [from, to).  For every j, with d = H(x, outcomes[j]) and bin
 * b = (j % kScanLanes) * stride + d:
 *
 *   chs[b] += px + probs[j]   when chs != nullptr (Step 1: the two
 *                             ordered contributions of the pair)
 *   h[b]   += probs[j]        when h != nullptr (Step 3: y's mass
 *                             at distance d from x)
 *
 * @p stride must exceed the outcome width, so every distance,
 * including those past the neighbourhood radius, has a bin.
 */
using PairScanFn = void (*)(common::Bits x, double px,
                            const common::Bits *outcomes,
                            const double *probs, std::size_t from,
                            std::size_t to, std::size_t stride,
                            double *chs, double *h);

#if (defined(__x86_64__) || defined(_M_X64)) &&                        \
    !defined(HAMMER_DISABLE_SIMD)
/** The AVX2 TU's kernel (pair_scan_avx2.cpp). */
extern const PairScanFn kAvx2PairScan;
#endif

/** The scan tier for @p tier: avx2 has its own TU, others scalar. */
common::KernelTier pairScanTier(common::KernelTier tier);

/** The kernel compiled for pairScanTier(@p tier). */
PairScanFn pairScanForTier(common::KernelTier tier);

} // namespace hammer::core::detail

#endif // HAMMER_CORE_PAIR_SCAN_HPP
