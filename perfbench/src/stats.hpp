/**
 * @file
 * Order statistics for the benchmark's timings.
 */

#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/** A tail percentile was asked of too few samples to support it. */
class TailTooThin : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Quantile @p q in [0, 1] by linear interpolation between closest
 * ranks; 0 for an empty sample.
 */
double quantile(std::vector<double> values, double q);

double median(std::vector<double> values);

/**
 * True when at least @p minBeyond samples lie strictly above the
 * @p q quantile's rank, i.e. (1 - q) * n >= minBeyond.
 */
bool tailSupported(std::size_t samples, double q, std::size_t minBeyond = 10);

/**
 * A reported tail: quantile(values, q), or TailTooThin when fewer
 * than @p minBeyond samples lie beyond it.
 */
double tailQuantile(std::vector<double> values, double q,
                    std::size_t minBeyond = 10);

/** exp(mean(log x)) over the positive finite values; 0 when none. */
double geometricMean(const std::vector<double> &values);

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
