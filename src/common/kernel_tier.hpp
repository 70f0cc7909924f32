/**
 * @file
 * ISA tier probe shared by every runtime-dispatched kernel family:
 * the simulator's gate kernels (sim/kernels.hpp) and HAMMER's pair
 * scan (core/pair_scan.hpp).
 *
 * The host CPU is probed once; HAMMER_KERNELS=scalar|sse2|avx2|neon
 * overrides the probe for the forced-tier parity legs (forcing a tier
 * the host cannot run is a hard error, so a misconfigured CI leg
 * fails loudly instead of silently testing the wrong tier), and
 * setActiveTier() overrides both in-process.
 */

#ifndef HAMMER_COMMON_KERNEL_TIER_HPP
#define HAMMER_COMMON_KERNEL_TIER_HPP

#include <optional>
#include <string>
#include <vector>

namespace hammer::common {

/** ISA tiers, in dispatch-preference order (highest wins). */
enum class KernelTier
{
    Scalar = 0,
    Sse2 = 1,
    /** AVX2 plus POPCNT (every AVX2 host has both; the probe checks). */
    Avx2 = 2,
    Neon = 3,
};

/** Canonical lower-case tier name ("scalar", "sse2", ...). */
const char *tierName(KernelTier tier);

/** Parse a tier name; returns false on unknown input. */
bool parseTier(const std::string &name, KernelTier &out);

/** True when this build contains the tier's translation units. */
bool tierCompiled(KernelTier tier);

/** True when the tier is compiled in AND the host CPU can run it. */
bool tierSupported(KernelTier tier);

/** Every supported tier, ascending (always contains Scalar). */
std::vector<KernelTier> supportedTiers();

/** Highest supported tier (the probe's dispatch choice). */
KernelTier bestSupportedTier();

/**
 * The tier every kernel family dispatches to: the setActiveTier()
 * override, else HAMMER_KERNELS, else bestSupportedTier().  The
 * environment is read once, on first call.
 */
KernelTier activeTier();

/**
 * Force the process-wide tier (nullopt reverts to the probe).  A
 * bench and parity-test hook, not for use while kernels run;
 * forcing an unsupported tier is a hard error.
 */
void setActiveTier(std::optional<KernelTier> tier);

} // namespace hammer::common

#endif // HAMMER_COMMON_KERNEL_TIER_HPP
