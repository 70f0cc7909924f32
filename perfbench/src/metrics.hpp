/**
 * @file
 * The benchmark's metric catalogue and how each metric is computed.
 *
 * End-to-end metrics come from an untraced phase; per-layer metrics
 * from a traced phase of the same workload and seed (plus the
 * untraced phase it is compared with, for trace.overhead).  Layer
 * names follow the repository's modules.  A layer that does not run
 * on a workload reports 0.
 */

#ifndef PERFBENCH_METRICS_HPP
#define PERFBENCH_METRICS_HPP

#include <string>
#include <vector>

#include "clients.hpp"

namespace perfbench {

struct MetricDef
{
    const char *name;
    const char *unit;
};

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

const std::vector<MetricDef> &endToEndCatalogue();
const std::vector<MetricDef> &perLayerCatalogue();

/**
 * End-to-end metrics of an untraced phase.
 * @throws TailTooThin when latency_p90_s has fewer than ten samples
 *         beyond it.
 */
std::vector<Metric> endToEndMetrics(const PhaseResult &phase);

/**
 * Per-layer metrics of a traced phase.  Tail percentiles of layers
 * with fewer than ten samples beyond p90 are still reported; their
 * names are appended to @p thinTails.
 */
std::vector<Metric> perLayerMetrics(const PhaseResult &traced,
                                    const PhaseResult &untraced,
                                    std::vector<std::string> &thinTails);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HPP
