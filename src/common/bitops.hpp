/**
 * @file
 * Bitstring utilities used throughout the Hamming-space machinery.
 *
 * Measurement outcomes are stored as the low @c n bits of a
 * std::uint64_t (qubit i -> bit i), which supports circuits of up to 64
 * measured qubits — far beyond the <= 24-qubit scale the paper studies.
 */

#ifndef HAMMER_COMMON_BITOPS_HPP
#define HAMMER_COMMON_BITOPS_HPP

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace hammer::common {

/** Measurement outcome: qubit i occupies bit i. */
using Bits = std::uint64_t;

// popcount and hammingDistance sit inside the Hamming-space loops
// (EHD scoring, the reference scorers), so they are defined inline.
// They compile to one POPCNT only where the target ISA has it; at
// the x86-64 baseline they call libgcc, which is why HAMMER's pair
// scan has its own POPCNT tier (core/pair_scan.hpp).

/** Number of set bits in @p x. */
inline int
popcount(Bits x)
{
    return std::popcount(x);
}

/** Hamming distance between two outcomes. */
inline int
hammingDistance(Bits a, Bits b)
{
    return std::popcount(a ^ b);
}

/**
 * Smallest Hamming distance from @p x to any outcome in @p targets.
 *
 * The paper uses the shortest distance when a circuit has several
 * correct answers (Section 3.2).
 *
 * @pre targets is non-empty.
 */
int minHammingDistance(Bits x, const std::vector<Bits> &targets);

/**
 * Render the low @p n bits of @p x as a bitstring.
 *
 * Qubit n-1 is the leftmost character, matching the textbook
 * convention used in the paper's figures ("1111" for key 0b1111).
 */
std::string toBitstring(Bits x, int n);

/**
 * toBitstring without the allocation: write the @p n characters to
 * @p out and return out + n, for callers that render many outcomes
 * (the Result JSON histograms).
 *
 * @pre out has room for n characters; 1 <= n <= 64 is checked.
 */
char *writeBitstring(Bits x, int n, char *out);

/**
 * Parse a bitstring back into an outcome.
 *
 * @param s String of '0'/'1'; leftmost character is the highest qubit.
 */
Bits fromBitstring(const std::string &s);

/**
 * Enumerate every n-bit value at Hamming distance exactly @p d from
 * @p center.
 *
 * The result has size C(n, d); the caller is expected to keep d small
 * (the library uses this for exhaustive neighbourhood checks in tests
 * and for the Fig. 5 distance-landscape experiment).
 */
std::vector<Bits> neighborsAtDistance(Bits center, int n, int d);

/** Binomial coefficient C(n, k) as a double (exact for small n). */
double binomial(int n, int k);

} // namespace hammer::common

#endif // HAMMER_COMMON_BITOPS_HPP
