/**
 * @file
 * Fault-injection seam shared by the concurrency layers.
 *
 * A FaultInjector is consulted at well-defined fault sites — a
 * service worker starting a job, the serving layer inserting into a
 * cache, a coalescing registration, the router sending to a shard —
 * and answers with one FaultAction.  Production code runs with no
 * injector installed (every site resolves to None at the cost of one
 * pointer test); the chaos harness (hammer::chaos::FaultPlan)
 * installs a deterministic, RNG-seeded implementation so every
 * injected failure sequence is replayable from a single uint64 seed.
 *
 * The interface lives in common (not chaos) so api::ExecutionService
 * and net::ShardRouter can accept an injector without depending on
 * the harness that implements it — the same boundary-layering idea as
 * ASPIS-style compile-time duplication: the protected code only knows
 * the seam, never the fault model.  common::ThreadPool has no fault
 * site: the service owns worker death end to end.
 */

#ifndef HAMMER_COMMON_FAULT_INJECTION_HPP
#define HAMMER_COMMON_FAULT_INJECTION_HPP

#include <cstdint>

namespace hammer::common {

/**
 * Where in the stack a fault decision is being made.  The values are
 * explicit because chaos::FaultPlan hashes them: a renumbering would
 * change the campaign every seed replays.
 */
enum class FaultSite
{
    /**
     * An ExecutionService worker starting (or mid-way through) one
     * service job attempt (key = jobId * 16 + attempt * 2 + phase).
     * Kill simulates the worker dying — the service retries the
     * attempt idempotently; Stall delays it.
     */
    ServiceJob = 1,

    /**
     * A result/execution outcome being inserted into a service cache
     * (key = FNV hash of the cache key).  Poison corrupts the stored
     * payload after its checksum was computed, so verification on the
     * next hit must detect it.
     */
    CacheInsert = 2,

    /**
     * An in-flight coalescing registration (key = FNV hash of the
     * canonical key).  Drop skips the registration (identical jobs
     * execute redundantly, results unchanged); Delay stalls the
     * submission path after registering.
     */
    CoalesceRegister = 3,

    /**
     * net::ShardRouter about to send one job frame to a shard
     * (key = jobId * 8 + attempt * 2).  Kill simulates the shard
     * connection dying at send — the router marks the shard dead,
     * re-routes every job pending on it, and retries this job on the
     * next attempt; Stall delays the send.
     */
    ShardSend = 4,

    /**
     * net::ShardRouter receiving one job's result frame
     * (key = jobId * 8 + attempt * 2 + 1).  Kill simulates the
     * response being lost on the wire — the frame is discarded and
     * the job re-dispatched idempotently (same spec, next attempt);
     * Stall delays delivery.
     */
    ShardRecv = 5,

    /**
     * A half-open circuit breaker about to admit its single probe
     * request (key = shard * 256 + episode).  Kill denies the probe
     * — the breaker stays open for another backoff episode, as if
     * the probe had been sent and failed; Stall delays it.
     */
    BreakerProbe = 6,

    /**
     * ExecutionService admission deciding whether to shed one
     * submitted job (key = submission sequence number).  Kill forces
     * the shed — the submit is rejected with DeadlineInfeasibleError
     * exactly as if the predicted completion had missed its
     * deadline.
     */
    ShedDecision = 7,
};

/** What the injector decided for one site visit. */
struct FaultAction
{
    enum class Kind
    {
        None,   ///< Proceed normally (the production answer).
        Kill,   ///< ServiceJob: the worker "dies" here.
        Stall,  ///< ServiceJob: sleep millis, then proceed.
        Poison, ///< CacheInsert: corrupt the stored payload.
        Drop,   ///< CoalesceRegister: skip the registration.
        Delay,  ///< CoalesceRegister: sleep millis after registering.
    };

    Kind kind = Kind::None;
    int millis = 0; ///< Stall/Delay duration.

    static FaultAction none() { return {}; }
};

/**
 * Deterministic fault oracle.
 *
 * Implementations must be thread-safe and SHOULD be a pure function
 * of (seed, site, key) so that a chaos run is replayable: which
 * worker visits a site first may race, but the decision each visit
 * receives never depends on scheduling.
 */
class FaultInjector
{
  public:
    virtual ~FaultInjector() = default;

    /** The action for one visit of @p site with call-site key @p key. */
    virtual FaultAction at(FaultSite site, std::uint64_t key) = 0;
};

} // namespace hammer::common

#endif // HAMMER_COMMON_FAULT_INJECTION_HPP
