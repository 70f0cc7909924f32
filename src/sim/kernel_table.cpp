/**
 * @file
 * Kernel-table dispatch over the process-wide tier probe
 * (common/kernel_tier.hpp).
 */

#include "sim/kernels.hpp"

namespace hammer::sim {

namespace {

/** The tier's table when compiled in (host support unchecked). */
const KernelTable *
compiledTable(KernelTier tier)
{
    switch (tier) {
    case KernelTier::Scalar:
        return &kScalarKernels;
#if !defined(HAMMER_DISABLE_SIMD)
#if defined(__x86_64__) || defined(_M_X64)
    case KernelTier::Sse2:
        return &kSse2Kernels;
    case KernelTier::Avx2:
        return &kAvx2Kernels;
#endif
#if defined(__aarch64__)
    case KernelTier::Neon:
        return &kNeonKernels;
#endif
#endif // !HAMMER_DISABLE_SIMD
    default:
        return nullptr;
    }
}

} // namespace

const KernelTable *
kernelsForTier(KernelTier tier)
{
    return tierSupported(tier) ? compiledTable(tier) : nullptr;
}

const KernelTable &
activeKernels()
{
    // The active tier is validated when probed or forced.
    return *compiledTable(common::activeTier());
}

void
setActiveKernels(const KernelTable *table)
{
    common::setActiveTier(table ? std::optional<KernelTier>(table->tier)
                                : std::nullopt);
}

} // namespace hammer::sim
