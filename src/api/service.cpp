#include "api/service.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <thread>
#include <type_traits>
#include <utility>

#include "api/autoplan.hpp"
#include "api/json.hpp"
#include "common/checksum.hpp"
#include "common/logging.hpp"
#include "sim/kernels.hpp"

namespace hammer::api {

using common::require;

namespace {

/**
 * Control-flow token for an injected worker death: thrown at a
 * ServiceJob fault point, caught by the worker's retry loop — never
 * escapes the service (exhausted retries surface WorkerLostError).
 */
struct InjectedWorkerDeath
{
};

/** FNV-1a digest of one histogram (width + sorted entries). */
std::uint64_t
distributionChecksum(const core::Distribution &dist)
{
    common::Fnv1a hasher;
    hasher.add(dist.numBits());
    hasher.add(static_cast<std::uint64_t>(dist.support()));
    for (const core::Entry &entry : dist.entries()) {
        hasher.add(static_cast<std::uint64_t>(entry.outcome));
        hasher.add(entry.probability);
    }
    return hasher.digest();
}

/**
 * Checksum of a cached value: resultChecksum for a Result.  An
 * execution outcome's covers the payload a poison fault can corrupt
 * (the raw histogram) plus the replayed sample cost; the RNG state
 * has no public representation to hash, and the fault model only
 * ever perturbs the histogram.  Template so the file-local function
 * can take the service's private ExecOutcome.
 */
template <typename T>
std::uint64_t
slotChecksum(const T &value)
{
    if constexpr (std::is_same_v<T, Result>) {
        return resultChecksum(value);
    } else {
        common::Fnv1a hasher;
        hasher.add(distributionChecksum(value.raw));
        hasher.add(value.sampleSeconds);
        return hasher.digest();
    }
}

/**
 * Deterministically corrupt the histogram a cached value serves (a
 * Result's mitigated one, an execution outcome's raw one): the
 * smallest perturbation verification must still catch (one
 * probability nudged by an exactly-representable delta).
 */
template <typename T>
void
corrupt(T &value)
{
    core::Distribution *dist = &value.raw;
    if constexpr (std::is_same_v<T, Result>)
        dist = &value.mitigated;
    if (dist->support() > 0) {
        const core::Entry &first = dist->entries().front();
        dist->set(first.outcome, first.probability + 0.125);
    } else {
        dist->set(0, 0.125);
    }
}

void
appendField(std::string &key, const char *name,
            const std::string &value)
{
    key += name;
    key += '=';
    key += value;
    key += '|';
}

/**
 * Retry-budget key class of a spec: backend + workload family (the
 * workload spec up to the first ':').  Coarse on purpose — a budget
 * should throttle a whole traffic class, not one parameterisation.
 */
std::string
retryKeyClass(const ExperimentSpec &spec)
{
    const std::size_t colon = spec.workload.find(':');
    return spec.backend + "|" + spec.workload.substr(0, colon);
}

} // namespace

// ---------------------------------------------------------------------------
// Typed operational errors + integrity checksums
// ---------------------------------------------------------------------------

QueueSaturatedError::QueueSaturatedError(std::size_t depth,
                                         std::size_t limit)
    : ServiceError("ExecutionService: queue saturated (" +
                   std::to_string(depth) + " queued, limit " +
                   std::to_string(limit) + ")"),
      depth_(depth), limit_(limit)
{
}

WorkerLostError::WorkerLostError(std::uint64_t job_id, int attempts)
    : ServiceError("ExecutionService: worker lost for job " +
                   std::to_string(job_id) + " (" +
                   std::to_string(attempts) +
                   " attempts exhausted)"),
      jobId_(job_id), attempts_(attempts)
{
}

ServiceShutdownError::ServiceShutdownError()
    : ServiceError("ExecutionService: shut down (no new submits "
                   "accepted)")
{
}

DeadlineInfeasibleError::DeadlineInfeasibleError(double predicted_ms,
                                                 double deadline_ms)
    : ServiceError("ExecutionService: deadline infeasible "
                   "(predicted completion " +
                   jsonNumber(predicted_ms) + " ms, deadline " +
                   jsonNumber(deadline_ms) + " ms)"),
      predictedMs_(predicted_ms), deadlineMs_(deadline_ms)
{
}

std::uint64_t
resultChecksum(const Result &result)
{
    // Everything bit-identity covers; the label (patched per handle)
    // and wall-clock timings are deliberately outside the digest.
    common::Fnv1a hasher;
    hasher.add(result.workloadSpec);
    hasher.add(result.family);
    hasher.add(result.backendName);
    hasher.add(result.machine);
    hasher.add(result.mitigationName);
    hasher.add(result.measuredQubits);
    hasher.add(result.shots);
    hasher.add(result.seed);
    hasher.add(distributionChecksum(result.raw));
    hasher.add(distributionChecksum(result.mitigated));
    hasher.add(static_cast<std::uint64_t>(
        result.hammerStats.uniqueOutcomes));
    hasher.add(result.hammerStats.maxDistance);
    hasher.add(static_cast<std::uint64_t>(
        result.hammerStats.aggregateChs.size()));
    for (const double value : result.hammerStats.aggregateChs)
        hasher.add(value);
    hasher.add(static_cast<std::uint64_t>(
        result.hammerStats.weights.size()));
    for (const double value : result.hammerStats.weights)
        hasher.add(value);
    hasher.add(result.hammerStats.pairOperations);
    hasher.add(result.pstRaw);
    hasher.add(result.pstMitigated);
    hasher.add(result.istRaw);
    hasher.add(result.istMitigated);
    hasher.add(result.ehdRaw);
    hasher.add(result.ehdMitigated);
    return hasher.digest();
}

// ---------------------------------------------------------------------------
// Canonical keys
// ---------------------------------------------------------------------------

std::optional<std::string>
canonicalExecKey(const ExperimentSpec &spec)
{
    // A prebuilt instance, explicit model or channel tuning is state
    // only the object graph holds — no string can canonically name
    // it, so such specs never coalesce and never hit the caches.
    if (spec.workloadInstance || spec.backendSpec.model ||
        spec.backendSpec.channelParams)
        return std::nullopt;

    std::string key;
    key.reserve(96);
    appendField(key, "w", spec.workload);
    appendField(key, "b", spec.backend);
    appendField(key, "m", spec.backendSpec.machine);
    appendField(key, "ns", jsonNumber(spec.backendSpec.noiseScale));
    appendField(key, "shots",
                std::to_string(spec.backendSpec.shots));
    appendField(key, "traj",
                std::to_string(spec.backendSpec.trajectories));
    appendField(key, "seed", std::to_string(spec.backendSpec.seed));
    return key;
}

std::optional<std::string>
canonicalSpecKey(const ExperimentSpec &spec)
{
    // A prebuilt mitigator is an opaque object: two instances with
    // the same name may carry different configs, so only chain-spec
    // strings key the result cache.
    if (spec.mitigator)
        return std::nullopt;
    auto key = canonicalExecKey(spec);
    if (key)
        appendField(*key, "mit", spec.mitigation);
    return key;
}

// ---------------------------------------------------------------------------
// JobHandle
// ---------------------------------------------------------------------------

struct ExecutionService::JobHandle::Job
{
    std::uint64_t id = 0;
    std::string label;      ///< Spec label ("" = workload spec).
    bool fromCache = false; ///< Satisfied from the result LRU.
    std::shared_future<std::shared_ptr<const Result>> future;
};

std::uint64_t
ExecutionService::JobHandle::id() const
{
    require(valid(), "JobHandle: invalid handle");
    return job_->id;
}

bool
ExecutionService::JobHandle::servedFromCache() const
{
    require(valid(), "JobHandle: invalid handle");
    return job_->fromCache;
}

// ---------------------------------------------------------------------------
// ExecutionService
// ---------------------------------------------------------------------------

ExecutionService::ExecutionService(ExecutionServiceOptions options)
    : options_(options), results_(options_.cacheCapacity),
      execs_(options_.cacheCapacity),
      pool_(std::make_unique<common::ThreadPool>(options_.workers))
{
}

common::FaultAction
ExecutionService::fault(common::FaultSite site,
                        std::uint64_t key) const
{
    if (!options_.faultInjector)
        return common::FaultAction::none();
    return options_.faultInjector->at(site, key);
}

template <typename T>
std::shared_ptr<const T>
ExecutionService::hitLocked(Tier<T> &tier, const std::string &key)
{
    const auto *slot = tier.cache.get(key);
    if (!slot)
        return nullptr;
    if (slotChecksum(*slot->value) == slot->checksum)
        return slot->value;
    ++stats_.cachePoisonDetected;
    tier.cache.erase(key);
    return nullptr;
}

template <typename T>
typename ExecutionService::Tier<T>::Slot
ExecutionService::slotFor(const std::string &key,
                          std::shared_ptr<const T> value) const
{
    const std::uint64_t checksum = slotChecksum(*value);
    if (fault(common::FaultSite::CacheInsert, common::fnv1a64(key))
            .kind == common::FaultAction::Kind::Poison) {
        auto corrupted = std::make_shared<T>(*value);
        corrupt(*corrupted);
        value = std::move(corrupted);
    }
    return {std::move(value), checksum};
}

resil::RetryBudget &
ExecutionService::budgetForLocked(const std::string &keyClass)
{
    const auto it = retryBudgets_.find(keyClass);
    if (it != retryBudgets_.end())
        return it->second;
    return retryBudgets_
        .emplace(keyClass,
                 resil::RetryBudget(options_.retryBudgetOptions))
        .first->second;
}

std::shared_ptr<const Result>
ExecutionService::degradedSubstituteLocked(const ExperimentSpec &spec)
{
    ExperimentSpec reduced = spec;
    reduced.backendSpec.trajectories = 0;
    const auto reducedKey = canonicalSpecKey(reduced);
    if (!reducedKey)
        return nullptr;
    const auto indexed = degradedIndex_.find(*reducedKey);
    if (indexed == degradedIndex_.end())
        return nullptr;

    // Best substitute: the highest cached trajectory budget still
    // strictly below the request's (equal budgets would have been a
    // plain cache hit already).  Index entries can outlive their LRU
    // slot, so stale ones are pruned as they are found, and the
    // chosen candidate is verified like any other hit.
    std::vector<int> &budgets = indexed->second;
    std::shared_ptr<const Result> best;
    int bestBudget = 0;
    for (std::size_t i = 0; i < budgets.size();) {
        const int budget = budgets[i];
        reduced.backendSpec.trajectories = budget;
        const auto fullKey = canonicalSpecKey(reduced);
        if (!fullKey || !results_.cache.get(*fullKey)) {
            budgets[i] = budgets.back();
            budgets.pop_back();
            continue;
        }
        if (budget < spec.backendSpec.trajectories &&
            budget > bestBudget) {
            if (auto hit = hitLocked(results_, *fullKey)) {
                best = std::move(hit);
                bestBudget = budget;
            }
        }
        ++i;
    }
    if (budgets.empty())
        degradedIndex_.erase(indexed);
    return best;
}

ExecutionService::~ExecutionService() = default;

int
ExecutionService::workers() const
{
    return pool_->threadCount();
}

ExecutionService::JobHandle
ExecutionService::submit(ExperimentSpec spec, int priority,
                         double deadlineMs)
{
    // Fail fast at the boundary: a malformed budget throws from
    // submit() itself rather than from a detached worker.
    validateBackendSpec(spec.backendSpec);
    require(spec.workloadInstance.has_value() || !spec.workload.empty(),
            "ExecutionService: spec needs a workload (workload spec "
            "or prebuilt instance)");

    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (shutdown_) {
            ++stats_.shutdownRejections;
            throw ServiceShutdownError();
        }
    }

    // The fan-out owns the cores when the pool has real workers;
    // forcing inner sampling serial does not change any histogram
    // (NoisySampler::sample's determinism guarantee).
    if (pool_->threadCount() > 1)
        spec.backendSpec.threads = 1;

    const auto fullKey = canonicalSpecKey(spec);
    const auto execKey = canonicalExecKey(spec);

    // Admission control: predict the job's cost before it touches
    // the queue.  The prediction feeds deadline shedding and the
    // predicted/measured telemetry only; queue order is priority,
    // then submission order.
    const double predicted = estimateSpecCost(spec);

    auto job = std::make_shared<JobHandle::Job>();
    job->label = spec.label;

    // The job's future comes from an explicit promise (not the
    // pool's) so the in-flight entry can be registered before the
    // pool sees the job: a worker may finish the job before
    // pool_->submit() returns, and the epilogue must find its own
    // entry to erase.  A cache hit or a degraded substitute fulfils
    // it at once.
    auto promise =
        std::make_shared<std::promise<std::shared_ptr<const Result>>>();
    job->future = promise->get_future().share();

    std::shared_ptr<const Result> cached;
    std::shared_ptr<const Result> degraded;
    int registerDelayMillis = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);

        if (fullKey) {
            cached = hitLocked(results_, *fullKey);
            if (cached)
                ++stats_.resultCache.hits;
            else
                ++stats_.resultCache.misses;
        }

        if (!cached && fullKey) {
            const auto it = results_.inflight.find(*fullKey);
            if (it != results_.inflight.end()) {
                // Identical job already queued or running: attach to
                // its future; wait() patches the label per handle.
                job->id = ++nextJobId_;
                ++stats_.submitted;
                ++stats_.coalesced;
                job->future = it->second;
                return JobHandle(job);
            }
        }

        // Admission, for jobs that would actually enqueue (cache hits
        // and coalesced attaches cost nothing and are never shed or
        // rejected).  Deadline-aware shedding: a job whose predicted
        // completion — the accepted backlog's predicted cost spread
        // across the workers, plus its own — already misses its
        // deadline is shed here, before it burns any compute.  The
        // ShedDecision seam is consulted first (its own sequence, one
        // consult per admission, so same-seed campaigns replay
        // identical decisions); Kill forces the shed regardless of
        // the deadline.  Backpressure: a full queue rejects.  Either
        // way an overloaded service may serve a stale-but-honest
        // substitute instead.  Rejected submits are not counted as
        // submitted, preserving completed + coalesced == submitted at
        // idle.
        std::size_t depth = 0;
        if (!cached) {
            const bool forced =
                fault(common::FaultSite::ShedDecision,
                      ++shedSequence_)
                    .kind == common::FaultAction::Kind::Kill;
            const double predictedCompletionMs =
                (pendingPredictedCost_ /
                     std::max(1, pool_->threadCount()) +
                 predicted) *
                1000.0;
            const bool infeasible =
                deadlineMs > 0.0 &&
                predictedCompletionMs > deadlineMs;
            depth = pool_->queuedJobs();
            const bool saturated = options_.maxQueueDepth > 0 &&
                                   depth >= options_.maxQueueDepth;
            if ((forced || infeasible || saturated) &&
                options_.degradedServing)
                degraded = degradedSubstituteLocked(spec);
            if ((forced || infeasible) && !degraded) {
                ++stats_.deadlineRejections;
                if (forced)
                    ++stats_.shedForced;
                throw DeadlineInfeasibleError(
                    predictedCompletionMs,
                    infeasible ? deadlineMs : 0.0);
            }
            if (saturated && !degraded) {
                ++stats_.queueRejections;
                throw QueueSaturatedError(depth,
                                          options_.maxQueueDepth);
            }
        }

        job->id = ++nextJobId_;
        ++stats_.submitted;
        if (cached || degraded) {
            ++stats_.completed;
            if (degraded)
                ++stats_.degradedServed;
            job->fromCache = true;
        } else {
            // Queue high-water mark, counting this job's slot.
            stats_.queuePeakDepth = std::max<std::uint64_t>(
                stats_.queuePeakDepth, depth + 1);
            // Admission accounting: this job's predicted cost is
            // backlog until its worker settles it, and its key
            // class earns one retry-budget deposit.
            pendingPredictedCost_ += predicted;
            if (options_.retryBudget)
                budgetForLocked(retryKeyClass(spec)).deposit();

            // This submit owns the execution: register it before any
            // concurrent identical submit can look the key up.
            if (fullKey) {
                const common::FaultAction action =
                    fault(common::FaultSite::CoalesceRegister,
                          common::fnv1a64(*fullKey));
                if (action.kind ==
                    common::FaultAction::Kind::Drop) {
                    // Registration lost: identical submits run
                    // redundantly, results unchanged.
                    ++stats_.coalesceDropped;
                } else {
                    results_.inflight.emplace(*fullKey, job->future);
                    if (action.kind ==
                        common::FaultAction::Kind::Delay)
                        registerDelayMillis = action.millis;
                }
            }
        }
    }

    if (registerDelayMillis > 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(registerDelayMillis));

    if (degraded) {
        // Degraded-result contract: the substitute is a copy of the
        // cached lower-budget result, explicitly flagged.  It is
        // never silently substituted and never re-cached under the
        // requested key; it is served like a hit.
        auto substitute = std::make_shared<Result>(*degraded);
        substitute->degraded = true;
        cached = std::move(substitute);
    }
    if (cached) {
        promise->set_value(std::move(cached));
        return JobHandle(job);
    }

    pool_->submit(
        [this, keyClass = retryKeyClass(spec),
         spec = std::move(spec), fullKey, execKey, promise,
         predicted, jobId = job->id] {
            // CPU time of this worker thread, not wall-clock: on an
            // oversubscribed machine concurrent workers time-slice
            // and every job's wall time inflates with the number of
            // neighbours — the busySeconds comparison across
            // processes (bench_shard_throughput's speedup model)
            // would measure core contention, not work.
            const double busyStart = common::threadCpuSeconds();
            std::shared_ptr<const Result> result;
            std::optional<Tier<Result>::Slot> slot;
            std::optional<std::string> reducedKey;
            std::exception_ptr error;
            try {
                // Retry loop: an injected worker death re-runs the
                // job (idempotent — a published exec outcome under
                // the same canonical key is reused, so a retried
                // Result is bit-identical) until the attempt budget
                // is spent, which surfaces as WorkerLostError.
                for (int attempt = 0;; ++attempt) {
                    try {
                        result = std::make_shared<const Result>(runJob(
                            spec, execKey,
                            jobId * 16 +
                                static_cast<std::uint64_t>(attempt) *
                                    2));
                        break;
                    } catch (const InjectedWorkerDeath &) {
                        std::lock_guard<std::mutex> lock(mutex_);
                        ++stats_.workerDeaths;
                        if (attempt >= options_.maxRetries) {
                            ++stats_.workerLost;
                            throw WorkerLostError(jobId,
                                                  attempt + 1);
                        }
                        // Each retry withdraws from the spec's
                        // key-class budget; an exhausted budget
                        // fails the job instead of retrying, so a
                        // flapping dependency cannot soak the pool
                        // in unbounded retries.
                        if (options_.retryBudget &&
                            !budgetForLocked(keyClass)
                                 .tryWithdraw()) {
                            ++stats_.retryBudgetExhausted;
                            throw resil::RetryBudgetExhaustedError(
                                "ExecutionService (job " +
                                    std::to_string(jobId) + ")",
                                attempt + 1);
                        }
                        ++stats_.retries;
                    }
                }
                // The cache slot, built outside the mutex, plus the
                // degraded-serving index key of the spec with its
                // trajectory budget zeroed: the family key
                // lower-budget substitutes are found by.  Degraded
                // substitutes never get here (submit() serves them
                // directly), so the cache only ever holds what a
                // spec actually asked for.
                if (fullKey) {
                    slot = slotFor(*fullKey, result);
                    if (options_.degradedServing &&
                        spec.backendSpec.trajectories > 0) {
                        ExperimentSpec reduced = spec;
                        reduced.backendSpec.trajectories = 0;
                        reducedKey = canonicalSpecKey(reduced);
                    }
                }
            } catch (...) {
                error = std::current_exception();
            }
            {
                std::lock_guard<std::mutex> lock(mutex_);
                if (fullKey) {
                    if (slot)
                        results_.cache.put(*fullKey, std::move(*slot));
                    results_.inflight.erase(*fullKey);
                }
                if (reducedKey) {
                    auto &budgets = degradedIndex_[*reducedKey];
                    const int budget = spec.backendSpec.trajectories;
                    if (std::find(budgets.begin(), budgets.end(),
                                  budget) == budgets.end())
                        budgets.push_back(budget);
                }
                const double busy =
                    common::threadCpuSeconds() - busyStart;
                ++stats_.completed;
                stats_.busySeconds += busy;
                if (!error) {
                    // Cost telemetry: executed jobs accumulate
                    // prediction and measurement side by side.
                    stats_.predictedCostSeconds += predicted;
                    stats_.measuredCostSeconds += busy;
                }
                pendingPredictedCost_ =
                    std::max(0.0, pendingPredictedCost_ - predicted);
            }
            if (error)
                promise->set_exception(error);
            else
                promise->set_value(std::move(result));
        },
        priority);

    return JobHandle(job);
}

Result
ExecutionService::runJob(const ExperimentSpec &spec,
                         const std::optional<std::string> &execKey,
                         std::uint64_t faultKey)
{
    // The two ServiceJob fault points of one attempt: phase 0 before
    // any work, phase 1 between the (publishable) execute stage and
    // mitigation.  A kill at either point leaves no in-flight exec
    // promise dangling — the registration window below has no fault
    // point — so retries always find a consistent coalescing map.
    const auto faultPoint = [&](std::uint64_t phase) {
        const common::FaultAction action =
            fault(common::FaultSite::ServiceJob, faultKey + phase);
        if (action.kind == common::FaultAction::Kind::Kill)
            throw InjectedWorkerDeath{};
        if (action.kind == common::FaultAction::Kind::Stall)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(action.millis));
    };
    faultPoint(0);

    RunState state;
    Result result = pipeline_.buildWorkload(spec, state);

    std::shared_ptr<const ExecOutcome> outcome;
    std::shared_future<std::shared_ptr<const ExecOutcome>> pending;
    std::shared_ptr<std::promise<std::shared_ptr<const ExecOutcome>>>
        computing;
    int execDelayMillis = 0;

    if (execKey) {
        const common::FaultAction action =
            fault(common::FaultSite::CoalesceRegister,
                  common::fnv1a64(*execKey));
        if (action.kind == common::FaultAction::Kind::Delay)
            execDelayMillis = action.millis;

        std::lock_guard<std::mutex> lock(mutex_);
        outcome = hitLocked(execs_, *execKey);
        if (!outcome) {
            const auto it = execs_.inflight.find(*execKey);
            if (it != execs_.inflight.end()) {
                pending = it->second;
            } else if (action.kind == common::FaultAction::Kind::Drop) {
                // Registration lost: this job computes redundantly
                // and publishes nothing — peers re-execute, results
                // unchanged.
                ++stats_.coalesceDropped;
            } else {
                computing = std::make_shared<std::promise<
                    std::shared_ptr<const ExecOutcome>>>();
                execs_.inflight.emplace(
                    *execKey, computing->get_future().share());
            }
        }
    }

    if (execDelayMillis > 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(execDelayMillis));

    if (pending.valid())
        outcome = pending.get(); // rethrows the computing peer's error

    if (outcome) {
        // Replay: the raw histogram was already computed by an
        // identical job.  Stand the backend up anyway (mitigation
        // stages like ensemble re-execute through it) and restore
        // the RNG to the exact post-sampling state so the remaining
        // stages see draws bit-identical to a full run.
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.executeShared;
        }
        pipeline_.standUpBackend(spec, state, result);
        result.raw = outcome->raw;
        state.rng = outcome->rngAfter;
        // The sample row reports the cost paid when the histogram
        // was first computed — by this job's peer, not this job.
        result.timings.push_back(
            {"sample", outcome->sampleSeconds});
    } else {
        try {
            pipeline_.execute(spec, state, result);
        } catch (...) {
            if (computing) {
                std::lock_guard<std::mutex> lock(mutex_);
                execs_.inflight.erase(*execKey);
                computing->set_exception(std::current_exception());
            }
            throw;
        }
        if (computing) {
            auto produced = std::make_shared<const ExecOutcome>(
                ExecOutcome{result.raw, state.rng,
                            result.stageSeconds("sample")});
            auto slot = slotFor(*execKey, produced);
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ++stats_.executeRuns;
                execs_.cache.put(*execKey, std::move(slot));
                execs_.inflight.erase(*execKey);
            }
            computing->set_value(std::move(produced));
        } else {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.executeRuns;
        }
    }

    faultPoint(1);

    pipeline_.mitigate(spec, state, result);
    pipeline_.score(state, result);
    return result;
}

Result
ExecutionService::wait(const JobHandle &handle) const
{
    require(handle.valid(), "ExecutionService: invalid job handle");
    // Help drain the queue instead of blocking outright: the pool
    // keeps threadCount-1 dedicated workers, so the waiting caller
    // is the remaining one (submit-all-then-wait batches use every
    // thread, and a 1-worker service runs its jobs here).
    while (handle.job_->future.wait_for(std::chrono::seconds(0)) !=
               std::future_status::ready &&
           pool_->tryRunOneJob()) {
    }
    // The one per-handle copy of a possibly shared Result.
    Result result = *handle.job_->future.get();
    // Labels are per-handle: coalesced and cached jobs share a
    // Result computed under some other handle's label, so re-derive
    // this handle's (the same rule Pipeline::buildWorkload applies).
    result.label = handle.job_->label.empty() ? result.workloadSpec
                                              : handle.job_->label;
    return result;
}

std::optional<Result>
ExecutionService::waitFor(const JobHandle &handle,
                          std::chrono::milliseconds timeout) const
{
    require(handle.valid(), "ExecutionService: invalid job handle");
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (;;) {
        if (handle.job_->future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready)
            break;
        if (std::chrono::steady_clock::now() >= deadline) {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.waitTimeouts;
            return std::nullopt;
        }
        // Drain like wait() does; once the queue is empty the job is
        // running (or wedged) on another worker, so block on the
        // future with whatever budget remains.
        if (!pool_->tryRunOneJob()) {
            if (handle.job_->future.wait_until(deadline) !=
                std::future_status::ready) {
                std::lock_guard<std::mutex> lock(mutex_);
                ++stats_.waitTimeouts;
                return std::nullopt;
            }
            break;
        }
    }
    Result result = *handle.job_->future.get(); // rethrows job errors
    result.label = handle.job_->label.empty() ? result.workloadSpec
                                              : handle.job_->label;
    return result;
}

bool
ExecutionService::poll(const JobHandle &handle) const
{
    require(handle.valid(), "ExecutionService: invalid job handle");
    return handle.job_->future.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
}

std::vector<Result>
ExecutionService::runMany(const std::vector<ExperimentSpec> &specs)
{
    std::vector<JobHandle> handles;
    handles.reserve(specs.size());
    for (const ExperimentSpec &spec : specs)
        handles.push_back(submit(spec));
    std::vector<Result> results;
    results.reserve(handles.size());
    for (const JobHandle &handle : handles)
        results.push_back(wait(handle));
    return results;
}

bool
ExecutionService::helpDrain()
{
    return pool_->tryRunOneJob();
}

void
ExecutionService::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    // Drain: run queued jobs on this thread; once the queue is empty,
    // wait for jobs still running on dedicated workers.  At idle
    // completed + coalesced == submitted (the submit() invariant), so
    // that equality is the drained condition.
    for (;;) {
        if (pool_->tryRunOneJob())
            continue;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (stats_.completed + stats_.coalesced >=
                stats_.submitted)
                return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

bool
ExecutionService::isShutdown() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return shutdown_;
}

ServiceStats
ExecutionService::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ServiceStats snapshot = stats_;
    snapshot.resultCache.entries = results_.cache.size();
    snapshot.distributionMemo = noise::DistributionMemo::shared().stats();
    return snapshot;
}

std::string
serviceStatsJson(const ServiceStats &stats, int workers)
{
    const auto cache = [](JsonWriter &json,
                          const noise::CacheStats &entry) {
        json.beginObject();
        json.key("entries")
            .value(static_cast<std::uint64_t>(entry.entries));
        json.key("hits")
            .value(static_cast<std::uint64_t>(entry.hits));
        json.key("misses")
            .value(static_cast<std::uint64_t>(entry.misses));
        json.endObject();
    };

    JsonWriter json;
    json.beginObject();
    json.key("type").value("service_stats");
    json.key("workers").value(workers);
    json.key("kernels").value(sim::tierName(sim::activeKernels().tier));
    json.key("submitted").value(stats.submitted);
    json.key("completed").value(stats.completed);
    json.key("coalesced").value(stats.coalesced);
    json.key("execute_runs").value(stats.executeRuns);
    json.key("execute_shared").value(stats.executeShared);
    json.key("result_cache");
    cache(json, stats.resultCache);
    json.key("distribution_memo");
    cache(json, stats.distributionMemo);
    json.key("worker_deaths").value(stats.workerDeaths);
    json.key("retries").value(stats.retries);
    json.key("worker_lost").value(stats.workerLost);
    json.key("queue_rejections").value(stats.queueRejections);
    json.key("cache_poison_detected")
        .value(stats.cachePoisonDetected);
    json.key("coalesce_dropped").value(stats.coalesceDropped);
    json.key("wait_timeouts").value(stats.waitTimeouts);
    json.key("shutdown_rejections").value(stats.shutdownRejections);
    json.key("deadline_rejections").value(stats.deadlineRejections);
    json.key("shed_forced").value(stats.shedForced);
    json.key("degraded_served").value(stats.degradedServed);
    json.key("retry_budget_exhausted")
        .value(stats.retryBudgetExhausted);
    json.key("queue_peak_depth").value(stats.queuePeakDepth);
    json.key("predicted_cost_seconds")
        .value(stats.predictedCostSeconds);
    json.key("measured_cost_seconds")
        .value(stats.measuredCostSeconds);
    json.key("busy_seconds").value(stats.busySeconds);
    json.endObject();
    return json.str();
}

// ---------------------------------------------------------------------------
// Serving protocol
// ---------------------------------------------------------------------------

namespace {

/** Positive integer from a JSON number (spec budgets are ints). */
int
positiveIntField(const JsonValue &value)
{
    // Range-check before the cast: double -> int conversion of an
    // out-of-range value is undefined behaviour.
    const double number = value.asNumber();
    if (!(number >= 1.0) ||
        number > static_cast<double>(
                     std::numeric_limits<int>::max()) ||
        number != std::floor(number))
        common::fatal("must be a positive integer");
    return static_cast<int>(number);
}

/** Seed from a JSON number: an integer in [0, kMaxSpecSeed]. */
std::uint64_t
seedField(const JsonValue &value)
{
    const double number = value.asNumber();
    if (!(number >= 0.0) ||
        number > static_cast<double>(kMaxSpecSeed) ||
        number != std::floor(number))
        common::fatal("must be an integer in [0, 2^53)");
    return static_cast<std::uint64_t>(number);
}

/** One key of the JSON spec form (error messages get the key prefixed). */
void
parseJsonSpecField(SpecLine &parsed, const std::string &key,
                   const JsonValue &value)
{
    ExperimentSpec &spec = parsed.spec;
    if (key == "workload") {
        spec.workload = value.asString();
    } else if (key == "backend") {
        spec.backend = value.asString();
    } else if (key == "machine") {
        spec.backendSpec.machine = value.asString();
    } else if (key == "noise_scale") {
        spec.backendSpec.noiseScale = value.asNumber();
    } else if (key == "shots") {
        spec.backendSpec.shots = positiveIntField(value);
    } else if (key == "trajectories") {
        spec.backendSpec.trajectories = positiveIntField(value);
    } else if (key == "seed") {
        spec.backendSpec.seed = seedField(value);
    } else if (key == "mitigation") {
        spec.mitigation = value.asString();
    } else if (key == "label") {
        spec.label = value.asString();
    } else if (key == "priority") {
        const double number = value.asNumber();
        if (number != std::floor(number) ||
            number < static_cast<double>(
                         std::numeric_limits<int>::min()) ||
            number > static_cast<double>(
                         std::numeric_limits<int>::max()))
            common::fatal("must be an integer");
        parsed.priority = static_cast<int>(number);
    } else if (key == "deadline_ms") {
        const double number = value.asNumber();
        if (!(number > 0.0) || !std::isfinite(number))
            common::fatal("must be a positive number");
        parsed.deadlineMs = number;
    } else {
        common::fatal("unknown key");
    }
}

SpecLine
parseJsonSpecLine(const std::string &line)
{
    const JsonValue object = parseJson(line);
    require(object.isObject(), "spec line: JSON value must be an "
                               "object");
    SpecLine parsed;
    std::vector<std::string> seen;
    for (const auto &[key, value] : object.members()) {
        // Last-one-wins duplicate keys would make a stale field in
        // an edited traffic file win silently: reject them, like
        // unknown keys.
        for (const auto &previous : seen)
            if (previous == key)
                common::fatal("spec line: duplicate key '" + key +
                              "'");
        seen.push_back(key);
        try {
            parseJsonSpecField(parsed, key, value);
        } catch (const std::invalid_argument &error) {
            // Accessor errors say "not a number" but not where:
            // re-throw with the key named so a long traffic file
            // pinpoints the bad value.
            common::fatal("spec line: key '" + key + "': " +
                          error.what());
        }
    }
    require(!parsed.spec.workload.empty(),
            "spec line: 'workload' is required");
    return parsed;
}

SpecLine
parseCsvSpecLine(const std::string &line)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    for (;;) {
        const std::size_t comma = line.find(',', start);
        std::string field = line.substr(start, comma - start);
        // Trim surrounding whitespace ('\r' included: getline on a
        // CRLF file leaves it on the last field).
        const auto isSpace = [](char c) {
            return c == ' ' || c == '\t' || c == '\r';
        };
        while (!field.empty() && isSpace(field.front()))
            field.erase(field.begin());
        while (!field.empty() && isSpace(field.back()))
            field.pop_back();
        fields.push_back(std::move(field));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    require(fields.size() <= 8,
            "spec line: too many CSV fields (expected workload[,"
            "backend[,shots[,seed[,mitigation[,machine[,label[,"
            "priority]]]]]]])");

    SpecLine parsed;
    ExperimentSpec &spec = parsed.spec;
    require(!fields[0].empty(), "spec line: 'workload' is required");
    spec.workload = fields[0];
    if (fields.size() > 1 && !fields[1].empty())
        spec.backend = fields[1];
    if (fields.size() > 2 && !fields[2].empty())
        spec.backendSpec.shots =
            parsePositiveInt(fields[2], "spec line 'shots'");
    if (fields.size() > 3 && !fields[3].empty())
        spec.backendSpec.seed =
            parseSeed(fields[3], "spec line 'seed'");
    if (fields.size() > 4 && !fields[4].empty()) {
        // ',' is the field separator, so multi-stage chains use '+'
        // here ("readout+hammer"), matching MitigationChain::name().
        spec.mitigation = fields[4];
        for (char &c : spec.mitigation)
            if (c == '+')
                c = ',';
    }
    if (fields.size() > 5 && !fields[5].empty())
        spec.backendSpec.machine = fields[5];
    if (fields.size() > 6 && !fields[6].empty())
        spec.label = fields[6];
    if (fields.size() > 7 && !fields[7].empty()) {
        // Priorities may be negative (background traffic), so
        // parsePositiveInt does not fit; full-consumption strtol
        // with an explicit int range check does.
        const std::string &field = fields[7];
        errno = 0;
        char *end = nullptr;
        const long value = std::strtol(field.c_str(), &end, 10);
        if (end == field.c_str() || *end != '\0' || errno == ERANGE ||
            value < std::numeric_limits<int>::min() ||
            value > std::numeric_limits<int>::max())
            common::fatal("spec line 'priority': must be an integer, "
                          "got '" + field + "'");
        parsed.priority = static_cast<int>(value);
    }
    return parsed;
}

} // namespace

SpecLine
parseSpecLine(const std::string &line)
{
    std::size_t first = 0;
    while (first < line.size() &&
           (line[first] == ' ' || line[first] == '\t'))
        ++first;
    require(first < line.size(), "spec line: empty line");
    if (line[first] == '{')
        return parseJsonSpecLine(line);
    return parseCsvSpecLine(line.substr(first));
}

// ---------------------------------------------------------------------------
// Result interchange
// ---------------------------------------------------------------------------

namespace {

/** Integer >= @p floor from a JSON number (UB-safe cast). */
long long
jsonIntField(const JsonValue &value, long long floor_value)
{
    const double number = value.asNumber();
    if (number != std::floor(number) ||
        number < static_cast<double>(floor_value) ||
        number > 9.007199254740992e15) // 2^53: exact-int ceiling
        common::fatal("must be an integer in range");
    return static_cast<long long>(number);
}

/** JSON metric field: null means unscored (NaN). */
double
metricField(const JsonValue &value)
{
    if (value.isNull())
        return std::numeric_limits<double>::quiet_NaN();
    return value.asNumber();
}

/** One histogram array back into a Distribution. */
core::Distribution
distributionFromJson(const JsonValue &array, int fallback_bits)
{
    require(array.isArray(), "result json: histogram must be an "
                             "array");
    // The writer renders outcomes at dist.numBits() width, so the
    // first entry's bitstring length is the width; an empty
    // histogram falls back to the measured-qubit count.
    int num_bits = fallback_bits > 0 ? fallback_bits : 1;
    if (!array.items().empty())
        num_bits = static_cast<int>(
            array.items().front().at("outcome").asString().size());
    core::Distribution dist(num_bits);
    for (const JsonValue &entry : array.items()) {
        const std::string &outcome =
            entry.at("outcome").asString();
        require(static_cast<int>(outcome.size()) == num_bits,
                "result json: ragged histogram outcome widths");
        dist.set(common::fromBitstring(outcome),
                 entry.at("probability").asNumber());
    }
    return dist;
}

} // namespace

Result
resultFromJson(const std::string &json)
{
    const JsonValue doc = parseJson(json);
    require(doc.isObject(), "result json: not an object");

    Result result;
    result.label = doc.at("label").asString();
    result.workloadSpec = doc.at("workload").asString();
    result.family = doc.at("family").asString();
    result.backendName = doc.at("backend").asString();
    result.machine = doc.at("machine").asString();
    result.mitigationName = doc.at("mitigation").asString();
    result.measuredQubits = static_cast<int>(
        jsonIntField(doc.at("measured_qubits"), 0));
    result.shots =
        static_cast<int>(jsonIntField(doc.at("shots"), 0));
    result.seed = static_cast<std::uint64_t>(
        jsonIntField(doc.at("seed"), 0));

    if (const JsonValue *flag = doc.find("degraded")) {
        require(flag->isBool(),
                "result json: degraded must be a boolean");
        result.degraded = flag->asBool();
    }

    if (const JsonValue *correct = doc.find("correct_outcomes")) {
        // writeJson only emits correct_outcomes off a Workload, so
        // rebuild a stub one (empty circuit, all-to-all coupling)
        // carrying just the success predicate — enough for the
        // parsed Result to re-serialize byte-identically and for
        // isCorrect()-based consumers.
        require(correct->isArray(),
                "result json: correct_outcomes must be an array");
        const int qubits = std::max(1, result.measuredQubits);
        Workload stub(result.family.empty() ? "replay"
                                            : result.family,
                      sim::Circuit(qubits),
                      circuits::CouplingMap::full(qubits), qubits);
        stub.spec = result.workloadSpec;
        for (const JsonValue &outcome : correct->items())
            stub.correctOutcomes.push_back(
                common::fromBitstring(outcome.asString()));
        result.workload = std::move(stub);
    }

    const JsonValue &timings = doc.at("timings");
    require(timings.isObject(),
            "result json: timings must be an object");
    for (const auto &[stage, seconds] : timings.members()) {
        if (stage == "total") // derived, not stored
            continue;
        result.timings.push_back({stage, seconds.asNumber()});
    }

    const JsonValue &hammer = doc.at("hammer_stats");
    result.hammerStats.uniqueOutcomes = static_cast<std::size_t>(
        jsonIntField(hammer.at("unique_outcomes"), 0));
    result.hammerStats.maxDistance = static_cast<int>(
        jsonIntField(hammer.at("max_distance"), 0));
    result.hammerStats.pairOperations = static_cast<std::uint64_t>(
        jsonIntField(hammer.at("pair_operations"), 0));

    const JsonValue &metrics = doc.at("metrics");
    result.pstRaw = metricField(metrics.at("pst_raw"));
    result.pstMitigated = metricField(metrics.at("pst_mitigated"));
    result.istRaw = metricField(metrics.at("ist_raw"));
    result.istMitigated = metricField(metrics.at("ist_mitigated"));
    result.ehdRaw = metricField(metrics.at("ehd_raw"));
    result.ehdMitigated = metricField(metrics.at("ehd_mitigated"));

    const JsonValue &histogram = doc.at("histogram");
    result.raw = distributionFromJson(histogram.at("raw"),
                                      result.measuredQubits);
    result.mitigated = distributionFromJson(
        histogram.at("mitigated"), result.measuredQubits);
    return result;
}

std::string
canonicalResultJson(const std::string &json)
{
    const JsonValue doc = parseJson(json);
    require(doc.isObject(), "canonicalResultJson: not an object");
    JsonWriter out;
    out.beginObject();
    for (const auto &[key, member] : doc.members()) {
        if (key == "label" || key == "timings")
            continue;
        out.key(key);
        writeJsonValue(out, member);
    }
    out.endObject();
    return out.take();
}

} // namespace hammer::api
