/**
 * @file
 * reconstruct()'s path rule and a forced-path entry point (internal
 * to core; tests and BENCH_core use them to compare the two paths on
 * one input).  Not a public option: reconstruct() always takes the
 * path the rule picks.
 */

#ifndef HAMMER_CORE_HAMMER_PATH_HPP
#define HAMMER_CORE_HAMMER_PATH_HPP

#include <cstddef>

#include "core/hammer.hpp"

namespace hammer::core::detail {

/**
 * The path reconstruct() takes for @p count outcomes of @p num_bits
 * bits, @p upper_rows of them above the least probable tie group: a
 * pure function of its arguments (never of the tier, thread count,
 * host or a clock).
 */
HammerPath hammerPathFor(int num_bits, std::size_t count,
                         std::size_t upper_rows, bool filter);

/**
 * reconstruct() on @p path instead of the rule's.  The transform
 * path needs the filter on and at most 20 bits.
 */
Distribution reconstructOnPath(HammerPath path, const Distribution &input,
                               const HammerConfig &config = {},
                               HammerStats *stats = nullptr);

} // namespace hammer::core::detail

#endif // HAMMER_CORE_HAMMER_PATH_HPP
