/**
 * @file
 * The closed-loop clients: one submitting thread driving
 * api::ExecutionService (sweep-hammer, qaoa-loop, readout-both) or a
 * net::ShardRouter over forked shard processes (fleet-repeat).
 *
 * A phase stands the front door up kSetups times (setup_s is their
 * median), each time paying a fixed warm-up on seeds disjoint from
 * the timed ones, then keeps the workload's window of requests
 * outstanding for the given seconds and drains.  With tracing on,
 * each request also records spans around the client's calls into the
 * modules and keeps the stage timings its Result carries — counting
 * a stage only where it actually executed, never a cached replay.
 */

#ifndef PERFBENCH_CLIENTS_HPP
#define PERFBENCH_CLIENTS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "requests.hpp"

namespace perfbench {

/** One client-side call, seconds since the phase epoch. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
};

/**
 * Stage seconds a request actually executed (zero for stages served
 * from a result-cache hit, coalescing, or exec sharing).
 */
struct ExecutedStages
{
    double workload = 0.0;
    double backend = 0.0;
    double sample = 0.0;
    double readout = 0.0;
    double hammer = 0.0;
    double mitigate = 0.0; ///< Whole chain (readout + hammer + ...).
    double score = 0.0;
    bool ranSample = false;
    bool ranReadout = false;
    bool ranHammer = false;
    bool ranPipeline = false; ///< Any stage at all (not a replay).
    std::uint64_t pairOps = 0;
    std::size_t uniqueOutcomes = 0;

    double total() const
    {
        return workload + backend + sample + mitigate + score;
    }
};

/** Everything measured about one timed request. */
struct RequestRecord
{
    std::size_t index = 0;
    std::size_t group = 0;
    double start = 0.0; ///< Client began work on it (parse/build).
    double end = 0.0;   ///< Result serialized / result line in hand.
    bool ok = false;
    std::string error;
    double pstGain = 0.0; ///< pst_mitigated / pst_raw; 0 when unscored.
    std::size_t bytes = 0;

    // Traced runs only.
    std::vector<Span> spans;
    ExecutedStages stages;
    double serializeSeconds = 0.0;
    /**
     * The time no span explains: queue wait in-process; on the fleet,
     * router submit->wait minus the shard stages it executed.
     */
    double remainder = 0.0;
};

/** Counter deltas over the timed phase (service or summed shards). */
struct ServiceDeltas
{
    double resultHits = 0.0;
    double resultMisses = 0.0;
    double executeRuns = 0.0;
    double executeShared = 0.0;
    double predictedCost = 0.0;
    double measuredCost = 0.0;
    double distinctExecKeys = 0.0;
    // fleet only
    double routerSubmitted = 0.0;
    double routerDispatched = 0.0;
    double routerBusySeconds = 0.0;
    std::vector<double> shardSubmitted; ///< Requests each shard took.
};

struct PhaseOptions
{
    const WorkloadConfig *config = nullptr;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool traced = false;
    bool deepChecks = false;
    std::string outDir; ///< Holds the fleet's unix sockets.
};

struct PhaseResult
{
    bool fleet = false; ///< Served by a ShardRouter fleet.
    double seconds = 0.0; ///< Requested length of the timed phase.
    std::vector<RequestRecord> records;
    std::vector<double> setupSeconds;
    double wall = 0.0; ///< First request start to last request end.
    double cpuSeconds = 0.0; ///< This process plus its shards.
    double peakRssMb = 0.0;  ///< VmHWM, this process plus its shards.
    double peakHeapMb = 0.0; ///< Heap peak, this process plus its shards.
    std::uint64_t stealTicks = 0;
    ServiceDeltas deltas;
    int deepChecks = 0;
    int deepFailures = 0;
    std::vector<std::string> failures; ///< First few reasons.

    std::size_t failed() const;
    double jobsPerSecond() const;
};

/** Set-ups per phase; setup_s reports their median. */
constexpr int kSetups = 3;

/** Run one phase of a workload. */
PhaseResult runPhase(const PhaseOptions &options);

} // namespace perfbench

#endif // PERFBENCH_CLIENTS_HPP
