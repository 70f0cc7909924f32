/**
 * @file
 * The four workloads and their request generator.
 *
 * Every request is a pure function of (workload, seed, position): the
 * benchmark takes the seed as an argument and the service only ever
 * sees the generated spec lines or prebuilt instances.  Warm-up
 * streams draw experiment seeds from a range disjoint from the timed
 * streams, so set-up never pre-populates a cache the timed phase
 * reads.
 */

#ifndef PERFBENCH_REQUESTS_HPP
#define PERFBENCH_REQUESTS_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/pipeline.hpp"
#include "circuits/qaoa_circuit.hpp"

namespace perfbench {

namespace api = hammer::api;
namespace circuits = hammer::circuits;
namespace common = hammer::common;
namespace core = hammer::core;

enum class WorkloadKind
{
    SweepHammer,
    QaoaLoop,
    ReadoutBoth,
    FleetRepeat,
};

/** Job-executing threads of every workload (per shard on the fleet). */
constexpr int kWorkers = 2;

/** Per-job sampling and mitigation threads. */
constexpr int kInnerThreads = 1;

/** Fixed traffic shape of one workload (README.md says why). */
struct WorkloadConfig
{
    WorkloadKind kind;
    const char *name;
    int window;         ///< Closed-loop requests outstanding at most.
    int groupSize;      ///< Requests submitted together.
    int warmupGroups;   ///< Fixed warm-up paid inside setup_s.
    int deepCheckEvery; ///< k of the 1-in-k deep correctness sample.
};

const std::vector<WorkloadConfig> &workloads();

/** @throws std::invalid_argument naming the known workloads. */
const WorkloadConfig &workloadByName(const std::string &name);

/** One prebuilt qaoa-loop circuit: ring graph plus explicit angles. */
struct QaoaRequest
{
    int nodes = 0;
    circuits::QaoaParams params;
    int trajectories = 0;
    int shots = 0;
    std::uint64_t seed = 0;
};

/** One generated request. */
struct Request
{
    std::size_t index = 0; ///< Position in its stream.

    /**
     * Requests of one group share an execution key (readout-both
     * triples, fleet-repeat repeats) or a gradient step (qaoa-loop).
     */
    std::size_t group = 0;

    /** Protocol line (api::parseSpecLine grammar); empty for qaoa. */
    std::string line;

    /** qaoa-loop only: the instance the client builds and submits. */
    std::optional<QaoaRequest> qaoa;

    /** Qubits the result must report as measured. */
    int measuredQubits = 0;

    /** Mitigation chain name the result must report. */
    std::string chain;

    /** Canonical one-line description (tests compare these). */
    std::string describe() const;
};

/**
 * Deterministic request stream: nextGroup() yields the groups of
 * (workload, seed) in order, each of WorkloadConfig::groupSize
 * requests.  Equal arguments yield equal sequences.  A warm-up stream
 * ignores the seed: every run pays the same fixed warm-up.
 */
class RequestStream
{
  public:
    RequestStream(WorkloadKind kind, std::uint64_t seed, bool warmup);

    std::vector<Request> nextGroup();

  private:
    WorkloadKind kind_;
    std::uint64_t seed_;
    bool warmup_;
    std::size_t produced_ = 0;
    std::size_t groups_ = 0;
    std::vector<Request> block_; ///< Drawn ahead, consumed front first.
    std::size_t cursor_ = 0;
    std::size_t blocks_ = 0;
    std::vector<Request> fleetSet_; ///< fleet-repeat's distinct lines.
};

/** The first @p groups groups of a stream, flattened. */
std::vector<Request> generate(WorkloadKind kind, std::uint64_t seed,
                              bool warmup, std::size_t groups);

/** Spec line of a request, parsed as a client would. */
api::ExperimentSpec parseRequest(const Request &request);

/**
 * qaoa-loop: build the request's prebuilt instance with
 * api::makeQaoaWorkload and wrap it in a spec.
 */
api::ExperimentSpec buildQaoaRequest(const Request &request);

/**
 * Timed experiment seeds lie in [1, 2^30); warm-up seeds in
 * (2^30, 2^31), still inside the positive-int range spec lines accept.
 */
constexpr std::uint64_t kWarmupSeedBase = std::uint64_t{1} << 30;

} // namespace perfbench

#endif // PERFBENCH_REQUESTS_HPP
