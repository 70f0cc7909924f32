/**
 * @file
 * AVX2 pair-scan tier: the same kernel source compiled with
 * -mavx2 -mpopcnt.  Callable only after the tier probe confirms both
 * (common/kernel_tier.cpp); merely linking this TU executes nothing.
 */

#if (defined(__x86_64__) || defined(_M_X64)) &&                        \
    !defined(HAMMER_DISABLE_SIMD)

#include "core/pair_scan_kernel.hpp"

namespace hammer::core::detail {

const PairScanFn kAvx2PairScan = pairScan;

} // namespace hammer::core::detail

#endif // x86-64
