/**
 * @file
 * The pair-scan row kernel's one source, included only by the per-ISA
 * TUs (pair_scan_scalar.cpp, pair_scan_avx2.cpp).
 *
 * Everything here has internal linkage, so each TU keeps the copy
 * compiled with its own flags: a shared inline definition would let
 * the linker hand the POPCNT build to baseline callers.
 */

#ifndef HAMMER_CORE_PAIR_SCAN_KERNEL_HPP
#define HAMMER_CORE_PAIR_SCAN_KERNEL_HPP

#include "core/pair_scan.hpp"

namespace hammer::core::detail {
namespace {

template <bool Chs, bool H>
inline void
scanRange(common::Bits x, double px, const common::Bits *outcomes,
          const double *probs, std::size_t from, std::size_t to,
          std::size_t stride, double *chs, double *h)
{
    constexpr std::size_t L = kScanLanes;
    const auto pair = [&](std::size_t j, std::size_t lane) {
        const std::size_t bin =
            lane * stride +
            static_cast<std::size_t>(__builtin_popcountll(x ^ outcomes[j]));
        if constexpr (Chs)
            chs[bin] += px + probs[j];
        if constexpr (H)
            h[bin] += probs[j];
    };
    // Head up to a lane boundary, whole lane groups (the lane is a
    // compile-time constant there), then the tail.
    std::size_t j = from;
    for (; j < to && j % L != 0; ++j)
        pair(j, j % L);
    for (; j + L <= to; j += L) {
        for (std::size_t lane = 0; lane < L; ++lane)
            pair(j + lane, lane);
    }
    for (; j < to; ++j)
        pair(j, j % L);
}

void
pairScan(common::Bits x, double px, const common::Bits *outcomes,
         const double *probs, std::size_t from, std::size_t to,
         std::size_t stride, double *chs, double *h)
{
    if (chs != nullptr && h != nullptr)
        scanRange<true, true>(x, px, outcomes, probs, from, to, stride,
                              chs, h);
    else if (chs != nullptr)
        scanRange<true, false>(x, px, outcomes, probs, from, to, stride,
                               chs, h);
    else if (h != nullptr)
        scanRange<false, true>(x, px, outcomes, probs, from, to, stride,
                               chs, h);
}

} // namespace
} // namespace hammer::core::detail

#endif // HAMMER_CORE_PAIR_SCAN_KERNEL_HPP
