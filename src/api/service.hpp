/**
 * @file
 * hammer::serve — the asynchronous, batching execution service.
 *
 * ExecutionService is the queued front door over the experiment
 * pipeline: submit(ExperimentSpec) enqueues one experiment as an
 * independent job on common::ThreadPool's future-returning queue
 * (highest priority first, submission order within a priority),
 * wait()/poll() observe it, and two cache tiers of one shape keep
 * repeated traffic cheap —
 *
 *   - execution outcomes: jobs whose canonical execution key
 *     (workload, backend, noise, shots, seed) matches an in-flight or
 *     recently completed job reuse that job's raw histogram instead
 *     of re-running the expensive sample stage;
 *   - Results: identical requests (execution key + mitigation) attach
 *     to the in-flight job or are served from the bounded LRU without
 *     touching the pipeline at all.
 *
 * Determinism is preserved end to end: every job's Result depends
 * only on its spec (Pipeline::run's own guarantee), a replayed
 * execution restores the RNG to the exact post-sampling state, and
 * the caches can therefore never serve a stale or divergent
 * histogram — results are bit-identical to Pipeline::run for any
 * worker count, including 1.
 *
 * Specs that have no canonical string form (prebuilt workload
 * instances, explicit noise models, opaque mitigator objects)
 * bypass both caches and simply run queued.
 *
 * The cost model (estimateSpecCost) predicts each admitted job's
 * seconds for deadline shedding and for the predicted/measured cost
 * totals in ServiceStats; it never reorders the queue.
 */

#ifndef HAMMER_API_SERVICE_HPP
#define HAMMER_API_SERVICE_HPP

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/pipeline.hpp"
#include "common/fault_injection.hpp"
#include "common/lru_cache.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/distribution.hpp"
#include "noise/distribution_memo.hpp"
#include "resil/resil.hpp"

namespace hammer::api {

/**
 * Base of the serving layer's typed runtime failures.
 *
 * Boundary violations (malformed specs) keep throwing
 * std::invalid_argument from submit(); ServiceError and its
 * subclasses are the *operational* failure vocabulary — overload,
 * lost workers — that chaos-hardened callers branch on.
 */
class ServiceError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * submit() rejected a job because the queue is at
 * ExecutionServiceOptions::maxQueueDepth: bounded backpressure
 * instead of unbounded memory growth under a traffic flood.
 */
class QueueSaturatedError final : public ServiceError
{
  public:
    QueueSaturatedError(std::size_t depth, std::size_t limit);

    std::size_t depth() const { return depth_; }
    std::size_t limit() const { return limit_; }

  private:
    std::size_t depth_;
    std::size_t limit_;
};

/**
 * A job's worker died (injected or real) on every allowed attempt:
 * wait()/waitFor() surface this instead of hanging or returning a
 * partial result.
 */
class WorkerLostError final : public ServiceError
{
  public:
    WorkerLostError(std::uint64_t job_id, int attempts);

    std::uint64_t jobId() const { return jobId_; }
    int attempts() const { return attempts_; }

  private:
    std::uint64_t jobId_;
    int attempts_;
};

/**
 * submit() called after shutdown(): the service is draining or
 * drained and accepts no new work.
 */
class ServiceShutdownError final : public ServiceError
{
  public:
    ServiceShutdownError();
};

/**
 * submit() rejected a job whose predicted completion (queue backlog
 * cost plus its own predicted cost, both from estimateSpecCost)
 * already exceeds its deadline: shedding up front instead of burning
 * compute on a result nobody will wait for.  deadlineMs() is 0 for a
 * chaos-forced shed (FaultSite::ShedDecision).
 */
class DeadlineInfeasibleError final : public ServiceError
{
  public:
    DeadlineInfeasibleError(double predicted_ms, double deadline_ms);

    /** Predicted completion (backlog + own cost), milliseconds. */
    double predictedMs() const { return predictedMs_; }
    double deadlineMs() const { return deadlineMs_; }

  private:
    double predictedMs_;
    double deadlineMs_;
};

/**
 * Deterministic FNV-1a digest of everything a Result guarantees
 * bit-identically: identity fields, both histograms (outcome +
 * probability bit patterns), HAMMER counters and metrics.  The label
 * (patched per handle) and stage timings (wall-clock noise) are
 * excluded.  This is the integrity checksum the service computes at
 * cache insert and verifies on every hit.
 */
std::uint64_t resultChecksum(const Result &result);

/** Tuning knobs of one ExecutionService. */
struct ExecutionServiceOptions
{
    /**
     * Threads draining the job queue; 0 selects
     * common::ThreadPool::defaultThreadCount().  N workers are N-1
     * dedicated threads plus whichever caller is inside wait(),
     * waitFor(), helpDrain() or shutdown(), so a 1-worker service
     * queues like any other and runs its jobs on those callers (with
     * their spec's inner sampling threads); with more, per-job inner
     * sampling is forced to 1 — the fan-out owns the cores.
     */
    int workers = 0;

    /**
     * Capacity of the result LRU and the execution-outcome LRU
     * (entries each); must be >= 1, or the constructor throws
     * std::invalid_argument.
     */
    std::size_t cacheCapacity = 256;

    /**
     * Reject submits with QueueSaturatedError once this many jobs
     * are queued (0 = unbounded), at every worker count.
     */
    std::size_t maxQueueDepth = 0;

    /**
     * Re-run attempts granted to a job whose worker dies mid-job
     * before wait() surfaces WorkerLostError.  Retries are
     * idempotent: a re-run is keyed by the same canonicalExecKey, so
     * a sample stage the dead worker already published is reused and
     * the retried Result is bit-identical to an undisturbed run.
     */
    int maxRetries = 2;

    /**
     * Chaos seam: consulted at every service fault site (worker
     * start/mid-job, cache inserts, coalescing registrations).
     * Production leaves this null; tests install a
     * chaos::FaultPlan.  The thread pool has no fault site: the
     * service owns worker death end to end (retry, then
     * WorkerLostError).
     */
    std::shared_ptr<common::FaultInjector> faultInjector;

    /**
     * Retry budgets (off by default): one token bucket per key
     * class (backend + workload family), deposited on every
     * accepted job and withdrawn on every worker-death retry.  A
     * denied withdrawal fails the job with
     * resil::RetryBudgetExhaustedError from wait() — correlated
     * worker deaths degrade to typed errors instead of a retry
     * storm re-running the whole backlog.
     */
    bool retryBudget = false;
    resil::RetryBudgetOptions retryBudgetOptions;

    /**
     * Degraded-mode serving (off by default): a submit that would
     * be shed (deadline infeasible) or rejected (queue saturated)
     * is instead served a cached same-spec result computed at a
     * *lower* trajectory budget, when one exists — explicitly
     * flagged (Result::degraded, "degraded": true in its JSON) and
     * never inserted back into any cache, so a degraded histogram
     * is never silently substituted for the real one.
     */
    bool degradedServing = false;
};

/**
 * Observability counters of one ExecutionService.
 *
 * Cache stats use the same noise::CacheStats triple as
 * noise::DistributionMemo, so entry points report every caching
 * layer uniformly.
 */
struct ServiceStats
{
    std::uint64_t submitted = 0; ///< Jobs accepted by submit().

    /**
     * Jobs the service finished itself — executed or served from the
     * result cache.  Coalesced handles are views onto another job's
     * future and complete with it, so they are counted there, once:
     * completed + coalesced == submitted when the queue is idle.
     */
    std::uint64_t completed = 0;

    /** Jobs that attached to an identical in-flight job's future. */
    std::uint64_t coalesced = 0;

    /** Expensive sample stages actually executed. */
    std::uint64_t executeRuns = 0;

    /** Sample stages served from a peer's execution outcome. */
    std::uint64_t executeShared = 0;

    /** The bounded result LRU (hits = served without any pipeline work). */
    noise::CacheStats resultCache;

    /**
     * The process-wide noise::DistributionMemo: clean distributions
     * for `channel`, evolved density matrices for `exact`.
     */
    noise::CacheStats distributionMemo;

    // -- failure-semantics counters (see README "Failure semantics") --

    /** Worker deaths observed (injected or real), across attempts. */
    std::uint64_t workerDeaths = 0;

    /** Job attempts re-run after a worker death. */
    std::uint64_t retries = 0;

    /** Jobs that exhausted retries and failed with WorkerLostError. */
    std::uint64_t workerLost = 0;

    /** Submits rejected with QueueSaturatedError (backpressure). */
    std::uint64_t queueRejections = 0;

    /**
     * Cache hits whose checksum failed verification: the entry was
     * evicted and the job recomputed — a poisoned histogram is never
     * served.
     */
    std::uint64_t cachePoisonDetected = 0;

    /** Coalescing registrations dropped by fault injection. */
    std::uint64_t coalesceDropped = 0;

    /** waitFor() calls that returned Timeout. */
    std::uint64_t waitTimeouts = 0;

    /** Submits rejected with ServiceShutdownError after shutdown(). */
    std::uint64_t shutdownRejections = 0;

    /**
     * Submits shed with DeadlineInfeasibleError (predicted
     * completion past the deadline, or a chaos-forced shed), the
     * forced subset counted separately.
     */
    std::uint64_t deadlineRejections = 0;
    std::uint64_t shedForced = 0;

    /**
     * Jobs served a cached lower-trajectory substitute under
     * degradedServing — every one carried Result::degraded == true.
     */
    std::uint64_t degradedServed = 0;

    /** Jobs failed because their key class's retry budget ran dry. */
    std::uint64_t retryBudgetExhausted = 0;

    /**
     * High-water mark of the pool's job queue depth, observed at
     * submit time (counts the submitting job), at every worker
     * count.
     */
    std::uint64_t queuePeakDepth = 0;

    /**
     * Sum of predicted job costs (estimateSpecCost, seconds) over
     * successfully executed jobs, with the matching measured CPU
     * seconds alongside: measured/predicted is the cost model's
     * accuracy on this traffic.  Cache hits and coalesced attaches
     * are excluded from both sides.
     */
    double predictedCostSeconds = 0.0;
    double measuredCostSeconds = 0.0;

    /**
     * Wall-clock seconds spent actually running jobs (all attempts,
     * summed across workers).  Machine-independent-ish measure of
     * compute consumed: cache hits and coalesced attaches add
     * nothing, so a shard fleet's critical path is the max of its
     * members' busySeconds — what bench_shard_throughput gates on.
     */
    double busySeconds = 0.0;
};

/**
 * One ServiceStats snapshot as a single-line JSON object (no trailing
 * newline): the machine-readable form --serve and --shard emit on
 * stderr, and the form net::ShardWorker answers StatsRequest frames
 * with.  Key layout:
 *
 *   {"type":"service_stats","workers":N,"submitted":...,
 *    "result_cache":{"entries":..,"hits":..,"misses":..},
 *    "distribution_memo":{...}, ..., "busy_seconds":...}
 */
std::string serviceStatsJson(const ServiceStats &stats, int workers);

/**
 * Canonical execution key of @p spec: everything that determines the
 * raw histogram (workload spec, backend name, machine, noise scale,
 * shots, trajectories, seed — threads excluded, histograms are
 * thread-count-invariant), or nullopt when the spec carries state a
 * string cannot canonically describe (prebuilt workload instance,
 * explicit noise model, channel params).
 */
std::optional<std::string>
canonicalExecKey(const ExperimentSpec &spec);

/**
 * Canonical full-spec key: the execution key plus the mitigation
 * chain spec; nullopt when the execution key is, or when an opaque
 * prebuilt mitigator is set.
 */
std::optional<std::string>
canonicalSpecKey(const ExperimentSpec &spec);

/**
 * Asynchronous, batching, caching front door over Pipeline.
 *
 * Thread-safe: submit/wait/poll/stats may be called from any thread.
 * The destructor joins jobs already running and discards ones still
 * queued (their wait() throws std::future_error broken_promise), so
 * a handle's future always becomes ready and tearing a service down
 * never executes its remaining backlog.
 */
class ExecutionService
{
  public:
    /**
     * Handle to one submitted job.  Cheap to copy; valid() is false
     * only for default-constructed handles.
     */
    class JobHandle
    {
      public:
        JobHandle() = default;

        bool valid() const { return job_ != nullptr; }

        /** Service-unique id, in submission order. */
        std::uint64_t id() const;

        /** True when submit() satisfied this job from the LRU. */
        bool servedFromCache() const;

      private:
        friend class ExecutionService;
        struct Job;
        explicit JobHandle(std::shared_ptr<Job> job)
            : job_(std::move(job))
        {
        }
        std::shared_ptr<Job> job_;
    };

    /** Stand up the worker pool and caches @p options describe. */
    explicit ExecutionService(ExecutionServiceOptions options = {});

    ~ExecutionService();

    ExecutionService(const ExecutionService &) = delete;
    ExecutionService &operator=(const ExecutionService &) = delete;

    /**
     * Enqueue one experiment; returns immediately with a handle.
     *
     * Validation happens here, at the boundary: malformed budgets or
     * a missing workload throw std::invalid_argument from submit()
     * itself.  Deeper errors (unknown workload, backend or stage
     * names, ...) surface from wait().  Higher @p priority jobs run
     * first; equal priorities run FIFO.  A submit that coalesces
     * onto an identical in-flight job keeps that job's queue
     * position — its own @p priority is not applied retroactively
     * (deduplication wins over reprioritisation).
     *
     * @p deadlineMs > 0 enables deadline-aware admission: when the
     * job's predicted completion — the queue's accepted-but-
     * unfinished predicted cost divided across the workers, plus
     * this job's own predicted cost — already exceeds the deadline,
     * the submit is shed up front with DeadlineInfeasibleError (or
     * served a degraded substitute under degradedServing) instead
     * of timing out in waitFor() after burning compute.  Cache hits
     * and coalesced attaches are never shed: they cost nothing to
     * serve.
     */
    JobHandle submit(ExperimentSpec spec, int priority = 0,
                     double deadlineMs = 0.0);

    /** Block until @p handle's job finishes and return its Result. */
    Result wait(const JobHandle &handle) const;

    /**
     * Deadline-bounded wait: like wait(), but gives up after
     * @p timeout and returns nullopt (counting a waitTimeouts stat)
     * instead of blocking forever on a stalled or wedged job.  Job
     * errors still rethrow, exactly as wait() does.  The calling
     * thread helps drain the queue while it waits; the deadline is
     * re-checked between drained jobs, so a drained job that
     * outlives the deadline delays the Timeout answer by its own
     * runtime at most.
     */
    std::optional<Result>
    waitFor(const JobHandle &handle,
            std::chrono::milliseconds timeout) const;

    /** True when @p handle's Result is ready (wait() will not block). */
    bool poll(const JobHandle &handle) const;

    /**
     * Submit every spec, then wait in spec order: the batch entry
     * point.  Bit-identical for any worker count.
     */
    std::vector<Result> runMany(const std::vector<ExperimentSpec> &specs);

    /**
     * Run one queued job on the calling thread; false when the
     * queue is empty.  Lets a thread that is polling handles (the
     * --serve streaming loop) act as the pool's Nth worker instead
     * of sleeping.
     */
    bool helpDrain();

    /**
     * Stop accepting work and drain what was already accepted.
     *
     * Idempotent and callable from any thread: the first call flips
     * the service into the draining state (submit throws
     * ServiceShutdownError from then on, counted in
     * shutdownRejections), then every call — first or repeated —
     * helps run the remaining queued jobs and returns only once all
     * accepted jobs have completed.  Handles stay valid: wait() after
     * shutdown() returns the drained Result.  A submit racing the
     * first shutdown() call may still be accepted; it is drained like
     * any other job.
     */
    void shutdown();

    /** True once shutdown() has been called. */
    bool isShutdown() const;

    /** Counter snapshot. */
    ServiceStats stats() const;

    /** Resolved worker count of the underlying pool. */
    int workers() const;

  private:
    /** Everything the execute stage produced, shareable across jobs. */
    struct ExecOutcome
    {
        core::Distribution raw{1};
        common::Rng rngAfter{0}; ///< RNG state after sampling.
        double sampleSeconds = 0.0;
    };

    /**
     * One cache tier: a bounded LRU of slots plus the in-flight
     * futures identical requests coalesce on.  A slot holds a shared
     * value and the FNV checksum of the *genuine* value, computed at
     * insert (slotFor); every hit recomputes and compares (hitLocked)
     * — the ASPIS-style compare-at-the-boundary that turns silent
     * cache corruption into a detected, recomputed miss.
     */
    template <typename T>
    struct Tier
    {
        struct Slot
        {
            std::shared_ptr<const T> value;
            std::uint64_t checksum = 0;
        };

        explicit Tier(std::size_t capacity) : cache(capacity) {}

        common::LruCache<Slot> cache;
        std::unordered_map<std::string,
                           std::shared_future<std::shared_ptr<const T>>>
            inflight;
    };

    Result runJob(const ExperimentSpec &spec,
                  const std::optional<std::string> &execKey,
                  std::uint64_t faultKey);

    /** Injector decision for one site visit (None when no injector). */
    common::FaultAction fault(common::FaultSite site,
                              std::uint64_t key) const;

    /**
     * @p key's verified value in @p tier, or nullptr.  A slot whose
     * checksum no longer matches is evicted and counted in
     * cachePoisonDetected, so the caller recomputes instead of
     * serving a corrupt histogram.  Caller holds mutex_.
     */
    template <typename T>
    std::shared_ptr<const T> hitLocked(Tier<T> &tier,
                                       const std::string &key);

    /**
     * The cache slot for @p value under @p key, checksummed from the
     * genuine value.  Under a CacheInsert Poison only the slot gets a
     * corrupted copy: waiters and peers always receive @p value.
     */
    template <typename T>
    typename Tier<T>::Slot slotFor(const std::string &key,
                                   std::shared_ptr<const T> value) const;

    /**
     * The retry-budget bucket of @p keyClass, created on first use
     * with retryBudgetOptions.  Caller holds mutex_.
     */
    resil::RetryBudget &budgetForLocked(const std::string &keyClass);

    /**
     * A verified cached same-spec/lower-trajectory Result usable as
     * a degraded substitute for @p spec, or nullptr.  Caller holds
     * mutex_.
     */
    std::shared_ptr<const Result>
    degradedSubstituteLocked(const ExperimentSpec &spec);

    const Pipeline pipeline_{};
    const ExecutionServiceOptions options_;

    mutable std::mutex mutex_;
    std::uint64_t nextJobId_ = 0;
    bool shutdown_ = false;
    // Mutable: const observers (waitFor) count timeout stats.
    mutable ServiceStats stats_;
    // Shared values: a Result can be large (workload + two
    // histograms), so a hit hands out the cached pointer, and the
    // one copy per handle (wait/waitFor) runs outside the mutex.
    Tier<Result> results_;
    Tier<ExecOutcome> execs_;

    /** Per-key-class retry buckets (lazy; empty when budgets off). */
    std::unordered_map<std::string, resil::RetryBudget>
        retryBudgets_;

    /**
     * Degraded-serving index: reduced spec key (trajectories zeroed
     * out) -> the trajectory budgets with a cached Result, so an
     * overloaded submit can find a same-spec/lower-trajectory
     * substitute without scanning the LRU.  Entries may outlive
     * their cache slot; lookups re-verify against the cache.
     */
    std::unordered_map<std::string, std::vector<int>>
        degradedIndex_;

    /** Predicted seconds of accepted-but-unfinished executed jobs. */
    double pendingPredictedCost_ = 0.0;

    /** ShedDecision seam sequence (one consult per admission). */
    std::uint64_t shedSequence_ = 0;

    // Declared last: destroyed first, so queued jobs drained by the
    // pool destructor still see live caches and counters.
    std::unique_ptr<common::ThreadPool> pool_;
};

/**
 * One parsed serving request: the experiment plus its queue
 * priority and optional per-job deadline (0 = none), the latter fed
 * to deadline-aware admission.
 */
struct SpecLine
{
    ExperimentSpec spec;
    int priority = 0;
    double deadlineMs = 0.0;
};

/**
 * Parse one request line of the serving protocol (hammer_cli
 * --serve): either a JSON object
 *
 *   {"workload": "bv:8", "backend": "channel", "shots": 4096,
 *    "seed": 3, "mitigation": "readout,hammer", "machine":
 *    "machineA", "noise_scale": 1.0, "trajectories": 250,
 *    "label": "...", "priority": 5}
 *
 * (only "workload" is required; unknown keys throw), or a positional
 * CSV line
 *
 *   workload[,backend[,shots[,seed[,mitigation[,machine[,label
 *   [,priority]]]]]]]
 *
 * selected by the first non-space character ('{' = JSON).  In the
 * CSV form ',' is the field separator, so multi-stage mitigation
 * chains are written with '+' ("readout+hammer"), the same joiner
 * MitigationChain::name() renders.  "priority" (JSON key or 8th CSV
 * field, default 0, negatives allowed) maps straight onto submit()'s
 * priority argument, so remote clients reach the same priority queue
 * in-process callers do.  "deadline_ms" (JSON only, positive
 * milliseconds) maps onto submit()'s deadline for deadline-aware
 * admission.  "seed" takes any integer in [0, 2^53), the integers a
 * JSON number holds exactly, in both forms.
 *
 * @throws std::invalid_argument naming the offending field on any
 *         malformed input.
 */
SpecLine parseSpecLine(const std::string &line);

// ---------------------------------------------------------------------------
// Result interchange (what crosses the shard wire)
// ---------------------------------------------------------------------------

/**
 * Parse one Result::writeJson line back into a Result.
 *
 * Everything writeJson emits round-trips: identity fields, timings,
 * HAMMER counters, metrics (null -> NaN) and both histograms;
 * correct_outcomes are rebuilt onto a stub Workload so re-serializing
 * the parsed Result reproduces the original JSON byte-for-byte
 * (given the same max_outcomes).  Fields writeJson does not emit
 * (aggregate CHS vectors, the circuit itself) are absent — compare
 * results that crossed the shard wire with canonicalResultJson, not
 * resultChecksum.
 *
 * @throws std::invalid_argument on malformed or incomplete input.
 */
Result resultFromJson(const std::string &json);

/**
 * Canonical bit-identity form of one Result JSON line: parse, strip
 * the top-level "label" and "timings" members (per-handle and
 * wall-clock noise — exactly what resultChecksum excludes), and
 * re-emit via writeJsonValue.  Two Results are bit-identical iff
 * their canonical forms are byte-equal, across processes and
 * transports.  No trailing newline.
 */
std::string canonicalResultJson(const std::string &json);

} // namespace hammer::api

#endif // HAMMER_API_SERVICE_HPP
