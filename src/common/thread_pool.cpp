#include "common/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <exception>

#include "common/logging.hpp"

namespace hammer::common {

struct ThreadPool::Round
{
    using Task = std::function<void(std::size_t, int)>;

    Round(const Task &body, std::size_t items)
        : task(&body), count(items)
    {
    }

    /**
     * Claim and run items as @p slot until none are left or a task
     * threw.  A helper that starts after the items ran out returns
     * without dereferencing task, which dies with its parallelFor call.
     */
    void work(int slot)
    {
        std::unique_lock<std::mutex> lock(mutex);
        while (!error && next < count) {
            const std::size_t item = next++;
            ++busy;
            lock.unlock();
            std::exception_ptr thrown;
            try {
                (*task)(item, slot);
            } catch (...) {
                thrown = std::current_exception();
            }
            lock.lock();
            --busy;
            if (thrown && !error)
                error = thrown;
        }
        if (busy == 0)
            idle.notify_all();
    }

    const Task *task;
    const std::size_t count;
    std::mutex mutex;
    std::condition_variable idle; // busy reached 0
    std::size_t next = 0;
    int busy = 0; // slots inside a task call
    std::exception_ptr error;
};

ThreadPool::ThreadPool(int threads)
{
    if (threads == 0)
        threads = defaultThreadCount();
    require(threads >= 1, "ThreadPool: need at least one thread");
    threadCount_ = threads;
    workers_.reserve(static_cast<std::size_t>(threads - 1));
    // The caller of a round or a drain is the Nth thread; only
    // threads-1 dedicated workers are needed.
    for (int i = 1; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
    // Workers exit as soon as they see stop_, which can leave queued
    // jobs behind.  Discard them: destroying a packaged_task that
    // never ran makes its future throw broken_promise, so waiters
    // unblock with a defined error instead of the destructing thread
    // grinding through a possibly huge backlog (e.g. a batch being
    // abandoned because its first result threw).
    jobs_ = {};
}

int
ThreadPool::defaultThreadCount()
{
    if (const char *env = std::getenv("HAMMER_THREADS")) {
        char *end = nullptr;
        const long value = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && value >= 1)
            return static_cast<int>(value);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? static_cast<int>(hw) : 1;
}

std::function<void()>
ThreadPool::popLocked()
{
    std::function<void()> job = jobs_.top().run;
    jobs_.pop();
    return job;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] { return stop_ || !jobs_.empty(); });
            if (stop_)
                return;
            job = popLocked();
        }
        job();
    }
}

std::size_t
ThreadPool::queuedJobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return jobs_.size();
}

bool
ThreadPool::tryRunOneJob()
{
    std::function<void()> job;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (jobs_.empty())
            return false;
        job = popLocked();
    }
    job();
    return true;
}

int
ThreadPool::resolveThreadCount(int threads, std::size_t items)
{
    if (threads == 0)
        threads = defaultThreadCount();
    require(threads >= 1,
            "ThreadPool: thread count must be positive");
    if (items < static_cast<std::size_t>(threads))
        threads = items > 0 ? static_cast<int>(items) : 1;
    return threads;
}

ThreadPool &
ThreadPool::shared()
{
    static ThreadPool pool(defaultThreadCount());
    return pool;
}

void
ThreadPool::run(int workers, std::size_t count,
                const std::function<void(std::size_t, int)> &task)
{
    shared().runRound(workers, count, task);
}

void
ThreadPool::runChunked(
    int threads, std::size_t items, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t, std::size_t, int)>
        &task)
{
    require(chunk >= 1, "ThreadPool::runChunked: chunk must be >= 1");
    const std::size_t chunks = chunkCount(items, chunk);
    run(resolveThreadCount(threads, chunks), chunks,
        [&](std::size_t c, int slot) {
            const std::size_t begin = c * chunk;
            task(c, begin, std::min(items, begin + chunk), slot);
        });
}

void
ThreadPool::parallelFor(
    std::size_t count,
    const std::function<void(std::size_t, int)> &task)
{
    runRound(threadCount_, count, task);
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &task)
{
    parallelFor(count,
                [&task](std::size_t item, int) { task(item); });
}

void
ThreadPool::runRound(int slots, std::size_t count,
                     const std::function<void(std::size_t, int)> &task)
{
    if (count == 0)
        return;
    const auto round = std::make_shared<Round>(task, count);
    // One helper per extra slot, capped at the dedicated workers
    // (threadCount_ - 1) and at the items past the caller's first.
    const int extra = std::max(std::min(slots, threadCount_) - 1, 0);
    const int helpers = static_cast<int>(
        std::min(static_cast<std::size_t>(extra), count - 1));
    if (helpers > 0) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (int slot = 1; slot <= helpers; ++slot) {
                jobs_.push(QueuedJob{true, 0, jobSeq_++, [round, slot] {
                                         round->work(slot);
                                     }});
            }
        }
        wake_.notify_all();
    }

    round->work(/*slot=*/0);

    // No item is left to claim; wait out the helpers still inside a
    // task.  Helpers that never started need no waiting.
    std::unique_lock<std::mutex> lock(round->mutex);
    round->idle.wait(lock, [&] { return round->busy == 0; });
    if (round->error)
        std::rethrow_exception(round->error);
}

double
threadCpuSeconds()
{
    std::timespec ts{};
    if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0)
        return 0.0;
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace hammer::common
