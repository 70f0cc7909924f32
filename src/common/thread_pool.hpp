/**
 * @file
 * Reusable fixed-size thread pool with a dynamic parallel-for and a
 * future-returning job queue.
 *
 * The pool backs the parallel sampling engine
 * (noise::NoisySampler::sample): work items are claimed
 * dynamically by worker threads, and callers keep per-worker
 * accumulators (indexed by the slot id handed to each task) that are
 * merged after the loop — no shared mutable state, no atomics on the
 * hot path.  Determinism is the caller's contract: a task's output
 * must depend only on its item index (see common::Rng::fork), never
 * on which worker ran it.
 *
 * Alongside the barrier-style parallelFor rounds, submit() enqueues
 * independent jobs on a priority queue and hands back a std::future —
 * the asynchronous entry the serving layer (api::ExecutionService) is
 * built on.  Jobs drain highest priority first and in submission
 * order within a priority level; nothing else reorders the queue.
 * Queued jobs run on the same workers between rounds, so one pool
 * owns the cores no matter which style a caller uses.
 */

#ifndef HAMMER_COMMON_THREAD_POOL_HPP
#define HAMMER_COMMON_THREAD_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/fault_injection.hpp"

namespace hammer::common {

/**
 * Fixed-size pool of persistent worker threads.
 *
 * Workers are spawned once in the constructor and live until
 * destruction, so a pool can be reused across many parallelFor
 * rounds without paying thread start-up per call.
 */
class ThreadPool
{
  public:
    /**
     * @param threads Worker count; 0 selects defaultThreadCount().
     *        A pool of 1 runs every task inline on the caller.
     */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of threads that execute tasks (callers included). */
    int threadCount() const { return threadCount_; }

    /**
     * Run task(item, slot) for every item in [0, count), blocking
     * until all items finish.
     *
     * Items are claimed dynamically (the calling thread participates),
     * so uneven item costs balance automatically.  @p slot identifies
     * the executing thread, 0 <= slot < threadCount(); tasks use it to
     * index per-thread accumulators without synchronisation.
     *
     * The first exception thrown by a task is rethrown on the caller
     * after the round drains; remaining items are skipped.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t, int)> &task);

    /** Convenience overload for tasks that do not need the slot id. */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &task);

    /**
     * Enqueue one independent job and return a future for its result.
     *
     * Jobs are drained by the pool's workers whenever no parallelFor
     * round is pending, highest @p priority first and FIFO within a
     * priority level.  Exceptions thrown by @p fn are captured into
     * the future.  On a single-thread pool the job runs inline on the
     * caller before submit() returns (there are no dedicated workers
     * to hand it to), mirroring parallelFor's inline fast path.
     *
     * Jobs still queued when the pool is destroyed are discarded —
     * their futures throw std::future_error (broken_promise) from
     * get() — so tearing a pool down never executes a stale backlog;
     * jobs already started by a worker are joined to completion.
     */
    template <typename F>
    auto submit(F &&fn, int priority = 0)
        -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> future = task->get_future();
        enqueueJob([task] { (*task)(); }, priority);
        return future;
    }

    /** Jobs submitted but not yet started (queue depth). */
    std::size_t queuedJobs() const;

    /**
     * Install (or clear, with nullptr) a fault injector consulted at
     * FaultSite::PoolJob before every queued job runs, keyed by the
     * job's submission sequence number.
     *
     * Kill discards the job without running it — its future throws
     * std::future_error (broken_promise), the same defined error a
     * pool destruction delivers, so callers observe a dead worker as
     * a clean typed failure, never a hang.  Stall sleeps the worker
     * for the action's millis before running the job.  parallelFor
     * rounds are never faulted: the chaos surface is the asynchronous
     * job queue the serving layer runs on.
     */
    void setFaultInjector(std::shared_ptr<FaultInjector> injector);

    /**
     * Pop and run the highest-priority queued job on the calling
     * thread; false when the queue is empty.
     *
     * The caller-participation half of the job queue: a pool of N
     * has N-1 dedicated workers, and a caller that blocks on a
     * future calls this in a loop first (see
     * api::ExecutionService::wait) so submit-then-wait batches use
     * all N threads, exactly as parallelFor does.
     */
    bool tryRunOneJob();

    /**
     * Thread count used when a caller passes 0: the HAMMER_THREADS
     * environment variable when set to a positive integer, otherwise
     * std::thread::hardware_concurrency() (minimum 1).
     */
    static int defaultThreadCount();

    /**
     * Resolve a caller-facing thread request against a work-item
     * count: 0 becomes defaultThreadCount(), and the result is
     * capped at @p items so no pool ever spawns workers with
     * nothing to do.
     */
    static int resolveThreadCount(int threads, std::size_t items);

    /**
     * Process-wide pool of defaultThreadCount() threads, created on
     * first use.  Callers whose resolved thread count matches it
     * should prefer it over a fresh pool to avoid re-spawning OS
     * threads on every batch — see run().
     */
    static ThreadPool &shared();

    /**
     * Run task(item, slot) for item in [0, count) on exactly
     * @p workers threads (slot < workers), reusing the shared pool
     * when @p workers matches its size and a temporary pool
     * otherwise.  @p workers should come from resolveThreadCount().
     * Safe to call from multiple threads concurrently (rounds on the
     * shared pool are serialised); not reentrant from inside a task.
     */
    static void run(int workers, std::size_t count,
                    const std::function<void(std::size_t, int)> &task);

    /** Number of fixed-size chunks covering @p items. */
    static std::size_t chunkCount(std::size_t items, std::size_t chunk)
    {
        return items == 0 ? 0 : (items - 1) / chunk + 1;
    }

    /**
     * Run task(chunk_index, begin, end, slot) for every fixed-size
     * chunk [begin, end) of [0, items), where end - begin <= chunk.
     *
     * The chunk schedule depends only on (items, chunk) — never on
     * the thread count — so callers that keep chunk-indexed partial
     * results and reduce them in a fixed order get bit-identical
     * output for every @p threads value, including 1.  With one
     * resolved worker the chunks run inline on the caller (no pool
     * round at all), which also makes the single-thread path safe to
     * use from inside another pool task.
     */
    static void runChunked(
        int threads, std::size_t items, std::size_t chunk,
        const std::function<void(std::size_t, std::size_t, std::size_t,
                                 int)> &task);

  private:
    /** One queued submit() job; ordering key for the priority queue. */
    struct QueuedJob
    {
        int priority = 0;
        std::uint64_t seq = 0; // Submission sequence: FIFO rank, fault key.
        std::function<void()> run;

        bool operator<(const QueuedJob &other) const
        {
            if (priority != other.priority)
                return priority < other.priority;
            return seq > other.seq;
        }
    };

    void enqueueJob(std::function<void()> run, int priority);
    void workerLoop(int slot);
    void runRound(int slot);

    /**
     * Apply the installed injector's PoolJob decision for job @p seq:
     * sleeps through a Stall; returns false for a Kill (the caller
     * must discard @p job without running it).
     */
    bool passesFaultGate(std::uint64_t seq);

    int threadCount_;
    std::vector<std::thread> workers_;

    std::mutex roundMutex_; // serialises concurrent parallelFor calls
    mutable std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    const std::function<void(std::size_t, int)> *task_ = nullptr;
    std::size_t count_ = 0;
    std::size_t next_ = 0;
    std::size_t inFlight_ = 0;
    std::uint64_t round_ = 0;
    bool stop_ = false;
    bool abandonRound_ = false;
    std::exception_ptr firstError_;
    std::priority_queue<QueuedJob> jobs_;
    std::uint64_t jobSeq_ = 0;
    std::shared_ptr<FaultInjector> faultInjector_;
};

/**
 * CPU seconds consumed by the calling thread so far
 * (CLOCK_THREAD_CPUTIME_ID).  Unlike wall-clock, the value is
 * immune to time-slicing on oversubscribed machines, which makes it
 * the right basis for cross-process work comparisons
 * (api::ServiceStats::busySeconds).  Work done on *other* threads a
 * task spawns is not included.
 */
double threadCpuSeconds();

} // namespace hammer::common

#endif // HAMMER_COMMON_THREAD_POOL_HPP
