/**
 * @file
 * Scalar pair-scan tier: the kernel at the baseline ISA, plus the
 * tier dispatch.
 */

#include "core/pair_scan_kernel.hpp"

namespace hammer::core::detail {

common::KernelTier
pairScanTier(common::KernelTier tier)
{
    return tier == common::KernelTier::Avx2 ? tier
                                            : common::KernelTier::Scalar;
}

PairScanFn
pairScanForTier([[maybe_unused]] common::KernelTier tier)
{
#if (defined(__x86_64__) || defined(_M_X64)) &&                        \
    !defined(HAMMER_DISABLE_SIMD)
    if (pairScanTier(tier) == common::KernelTier::Avx2)
        return kAvx2PairScan;
#endif
    return pairScan;
}

} // namespace hammer::core::detail
