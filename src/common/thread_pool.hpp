/**
 * @file
 * Reusable fixed-size thread pool with one priority job queue, which
 * carries both future-returning jobs and the helpers of dynamic
 * parallel-for rounds.
 *
 * The pool backs the parallel sampling engine
 * (noise::NoisySampler::sample), the HAMMER pair scan and the readout
 * unfolding: work items are claimed dynamically, and callers keep
 * per-slot accumulators (indexed by the slot id handed to each task)
 * that are merged after the loop — no shared mutable state, no
 * atomics on the hot path.  Determinism is the caller's contract: a
 * task's output must depend only on its item index (see
 * common::Rng::fork), never on which slot ran it.
 *
 * submit() enqueues an independent job and hands back a std::future —
 * the asynchronous entry the serving layer (api::ExecutionService) is
 * built on.  Jobs drain highest priority first and in submission
 * order within a priority level.  A parallelFor round enqueues one
 * helper job per extra slot ahead of every submitted job, and its
 * caller works through the items as slot 0, so a round never waits
 * for a helper that has not started: with every worker busy, the
 * caller runs all the items itself.
 */

#ifndef HAMMER_COMMON_THREAD_POOL_HPP
#define HAMMER_COMMON_THREAD_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace hammer::common {

/**
 * Fixed-size pool of persistent worker threads.
 *
 * A pool of N spawns N-1 dedicated workers once, in the constructor;
 * the Nth thread is whichever caller runs a round or drains the queue
 * (tryRunOneJob), so a pool can be reused across many rounds without
 * paying thread start-up per call.
 */
class ThreadPool
{
  public:
    /** @param threads Thread count; 0 selects defaultThreadCount(). */
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
     * The caller claims items as slot 0 while up to threadCount()-1
     * queued helper jobs claim them as slots 1, 2, ..., so uneven
     * item costs balance automatically and 0 <= slot < threadCount();
     * tasks use the slot to index per-thread accumulators without
     * synchronisation.  Safe to call from several threads at once and
     * from inside a job: a helper that starts after the items ran out
     * returns without touching @p task.
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
     * Jobs are drained by the dedicated workers and by tryRunOneJob()
     * callers, highest @p priority first and FIFO within a priority
     * level; a pool of 1 has no dedicated workers, so its jobs run
     * only when a caller drains them.  Exceptions thrown by @p fn are
     * captured into the future.
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
        {
            std::lock_guard<std::mutex> lock(mutex_);
            jobs_.push(QueuedJob{false, priority, jobSeq_++,
                                 [task] { (*task)(); }});
        }
        wake_.notify_one();
        return future;
    }

    /** Queued jobs not yet started (round helpers included). */
    std::size_t queuedJobs() const;

    /**
     * Pop and run the highest-priority queued job on the calling
     * thread; false when the queue is empty.
     *
     * The caller-participation half of the job queue: a caller that
     * blocks on a future calls this in a loop first (see
     * api::ExecutionService::wait), so submit-then-wait batches use
     * all N threads of a pool of N.
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
     * capped at @p items so no round has slots with nothing to do.
     */
    static int resolveThreadCount(int threads, std::size_t items);

    /** Process-wide pool of defaultThreadCount() threads (lazy). */
    static ThreadPool &shared();

    /**
     * Run task(item, slot) for item in [0, count) as one round on
     * shared() with at most @p workers slots (slot < workers; fewer
     * when the shared pool is smaller, so no call spawns threads).
     * @p workers should come from resolveThreadCount().
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
     * chunk [begin, end) of [0, items), where end - begin <= chunk,
     * through run() with resolveThreadCount(threads, chunks) slots.
     *
     * The chunk schedule depends only on (items, chunk) — never on
     * the thread count — so callers that keep chunk-indexed partial
     * results and reduce them in a fixed order get bit-identical
     * output for every @p threads value, including 1.
     */
    static void runChunked(
        int threads, std::size_t items, std::size_t chunk,
        const std::function<void(std::size_t, std::size_t, std::size_t,
                                 int)> &task);

  private:
    /** One parallelFor call's items, shared with its helper jobs. */
    struct Round;

    /** One queued job; ordering key for the priority queue. */
    struct QueuedJob
    {
        bool helper = false; // Round helpers run ahead of every job.
        int priority = 0;
        std::uint64_t seq = 0; // Submission sequence: FIFO rank.
        std::function<void()> run;

        bool operator<(const QueuedJob &other) const
        {
            if (helper != other.helper)
                return other.helper;
            if (priority != other.priority)
                return priority < other.priority;
            return seq > other.seq;
        }
    };

    /** parallelFor with at most @p slots slots (caller included). */
    void runRound(int slots, std::size_t count,
                  const std::function<void(std::size_t, int)> &task);

    /** Remove and return the top job.  Caller holds mutex_. */
    std::function<void()> popLocked();

    void workerLoop();

    int threadCount_;
    std::vector<std::thread> workers_;

    mutable std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
    std::priority_queue<QueuedJob> jobs_;
    std::uint64_t jobSeq_ = 0;
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
