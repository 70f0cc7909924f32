/**
 * @file
 * Bench-harness shims over the hammer::api experiment layer.
 *
 * The workload builders and smoke-mode budget helpers the benches
 * historically found here were promoted into the library (src/api)
 * so the CLI, examples and tests share one implementation; this
 * header re-exports them under the established bench names.  Benches
 * sample by calling a backend's NoisySampler::sample directly.  New
 * bench code should prefer hammer::api directly.
 */

#ifndef HAMMER_BENCH_SUPPORT_WORKLOADS_HPP
#define HAMMER_BENCH_SUPPORT_WORKLOADS_HPP

#include <string>
#include <utility>
#include <vector>

#include "api/api.hpp"

namespace hammer::bench {

/** The shared experiment-instance type (see api::Workload). */
using api::Workload;

/** @{ Historical instance-type names (both are api::Workload now). */
using BvInstance = api::Workload;
using QaoaInstance = api::Workload;
/** @} */

/** @{ Smoke-mode budget helpers (promoted to api::smoke). */
using api::smokeCount;
using api::smokeMode;
using api::smokeShapes;
using api::smokeShots;
using api::smokeSizes;
/** @} */

/** Build one routed BV instance on a line device. */
inline Workload
makeBvInstance(int key_bits, common::Bits key,
               const std::string &machine)
{
    return api::makeBvWorkload(key_bits, key, machine);
}

/** Build one routed QAOA instance from a graph. */
inline Workload
makeQaoaInstance(const graph::Graph &g, int layers, bool grid_device,
                 int grid_rows, int grid_cols,
                 const std::string &family)
{
    return api::makeQaoaWorkload(g, layers, grid_device, grid_rows,
                                 grid_cols, family);
}

/** Build a batch of BV instances with random keys. */
inline std::vector<Workload>
makeBvWorkload(const std::vector<int> &sizes, int keys_per_size,
               const std::vector<std::string> &machines,
               common::Rng &rng)
{
    return api::makeBvSweep(sizes, keys_per_size, machines, rng);
}

/** QAOA on random 3-regular graphs routed onto a line device. */
inline std::vector<Workload>
makeQaoa3RegWorkload(const std::vector<int> &sizes,
                     const std::vector<int> &layer_counts,
                     int instances_per_config, common::Rng &rng)
{
    return api::makeQaoa3RegSweep(sizes, layer_counts,
                                  instances_per_config, rng);
}

/** QAOA on grid graphs routed onto a matching grid device. */
inline std::vector<Workload>
makeQaoaGridWorkload(const std::vector<std::pair<int, int>> &shapes,
                     const std::vector<int> &layer_counts)
{
    return api::makeQaoaGridSweep(shapes, layer_counts);
}

/** QAOA on Erdos-Renyi random graphs routed onto a line device. */
inline std::vector<Workload>
makeQaoaRandWorkload(const std::vector<int> &sizes,
                     const std::vector<int> &layer_counts,
                     int instances_per_config, common::Rng &rng)
{
    return api::makeQaoaRandSweep(sizes, layer_counts,
                                  instances_per_config, rng);
}

} // namespace hammer::bench

#endif // HAMMER_BENCH_SUPPORT_WORKLOADS_HPP
