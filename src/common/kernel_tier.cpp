#include "common/kernel_tier.hpp"

#include <atomic>
#include <cstdlib>

#include "common/logging.hpp"

namespace hammer::common {

namespace {

#if (defined(__x86_64__) || defined(_M_X64)) &&                        \
    !defined(HAMMER_DISABLE_SIMD)
constexpr bool kX86Simd = true;
#else
constexpr bool kX86Simd = false;
#endif
#if defined(__aarch64__) && !defined(HAMMER_DISABLE_SIMD)
constexpr bool kNeonSimd = true;
#else
constexpr bool kNeonSimd = false;
#endif

KernelTier
probeTier()
{
    if (const char *env = std::getenv("HAMMER_KERNELS");
        env != nullptr && *env != '\0') {
        KernelTier forced;
        if (!parseTier(env, forced))
            panic(std::string("HAMMER_KERNELS: unknown tier '") + env +
                  "'");
        if (!tierSupported(forced))
            panic(std::string("HAMMER_KERNELS: tier '") +
                  tierName(forced) + "' is not supported on this host");
        return forced;
    }
    return bestSupportedTier();
}

// -1: no override; otherwise the forced KernelTier's value.
std::atomic<int> g_override{-1};

} // namespace

const char *
tierName(KernelTier tier)
{
    switch (tier) {
    case KernelTier::Scalar:
        return "scalar";
    case KernelTier::Sse2:
        return "sse2";
    case KernelTier::Avx2:
        return "avx2";
    case KernelTier::Neon:
        return "neon";
    }
    return "unknown";
}

bool
parseTier(const std::string &name, KernelTier &out)
{
    for (KernelTier tier : {KernelTier::Scalar, KernelTier::Sse2,
                            KernelTier::Avx2, KernelTier::Neon}) {
        if (name == tierName(tier)) {
            out = tier;
            return true;
        }
    }
    return false;
}

bool
tierCompiled(KernelTier tier)
{
    switch (tier) {
    case KernelTier::Scalar:
        return true;
    case KernelTier::Sse2:
    case KernelTier::Avx2:
        return kX86Simd;
    case KernelTier::Neon:
        return kNeonSimd;
    }
    return false;
}

bool
tierSupported(KernelTier tier)
{
    if (!tierCompiled(tier))
        return false;
#if (defined(__x86_64__) || defined(_M_X64)) &&                        \
    !defined(HAMMER_DISABLE_SIMD)
    // The AVX2 TUs also rely on POPCNT (HAMMER's pair scan).
    if (tier == KernelTier::Avx2)
        return __builtin_cpu_supports("avx2") != 0 &&
               __builtin_cpu_supports("popcnt") != 0;
#endif
    // SSE2 is part of the x86-64 baseline and Advanced SIMD is
    // architecturally guaranteed on AArch64.
    return true;
}

std::vector<KernelTier>
supportedTiers()
{
    std::vector<KernelTier> tiers;
    for (KernelTier tier : {KernelTier::Scalar, KernelTier::Sse2,
                            KernelTier::Avx2, KernelTier::Neon}) {
        if (tierSupported(tier))
            tiers.push_back(tier);
    }
    return tiers;
}

KernelTier
bestSupportedTier()
{
    return supportedTiers().back();
}

KernelTier
activeTier()
{
    if (const int forced = g_override.load(std::memory_order_acquire);
        forced >= 0)
        return static_cast<KernelTier>(forced);
    static const KernelTier probed = probeTier();
    return probed;
}

void
setActiveTier(std::optional<KernelTier> tier)
{
    if (tier && !tierSupported(*tier))
        panic(std::string("setActiveTier: tier '") + tierName(*tier) +
              "' is not supported on this host");
    g_override.store(tier ? static_cast<int>(*tier) : -1,
                     std::memory_order_release);
}

} // namespace hammer::common
