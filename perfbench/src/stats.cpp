#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace perfbench {

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

bool
tailSupported(std::size_t samples, double q, std::size_t minBeyond)
{
    // The epsilon absorbs 0.1 * 100 landing a hair below 10.
    return (1.0 - q) * static_cast<double>(samples) + 1e-9 >=
           static_cast<double>(minBeyond);
}

double
tailQuantile(std::vector<double> values, double q, std::size_t minBeyond)
{
    if (!tailSupported(values.size(), q, minBeyond))
        throw TailTooThin(
            "p" + std::to_string(static_cast<int>(std::lround(q * 100))) +
            " needs " + std::to_string(minBeyond) +
            " samples beyond it; only " + std::to_string(values.size()) +
            " samples were timed");
    return quantile(std::move(values), q);
}

double
geometricMean(const std::vector<double> &values)
{
    double logSum = 0.0;
    std::size_t count = 0;
    for (const double v : values) {
        if (v > 0.0 && std::isfinite(v)) {
            logSum += std::log(v);
            ++count;
        }
    }
    return count == 0 ? 0.0 : std::exp(logSum / static_cast<double>(count));
}

} // namespace perfbench
