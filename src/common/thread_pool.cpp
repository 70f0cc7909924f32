#include "common/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <ctime>

#include "common/logging.hpp"

namespace hammer::common {

ThreadPool::ThreadPool(int threads)
{
    if (threads == 0)
        threads = defaultThreadCount();
    require(threads >= 1, "ThreadPool: need at least one thread");
    threadCount_ = threads;
    workers_.reserve(static_cast<std::size_t>(threads - 1));
    // The caller participates in every round as slot 0; only
    // threads-1 dedicated workers are needed.
    for (int slot = 1; slot < threads; ++slot)
        workers_.emplace_back([this, slot] { workerLoop(slot); });
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

void
ThreadPool::workerLoop(int slot)
{
    std::uint64_t seen_round = 0;
    for (;;) {
        std::function<void()> job;
        std::uint64_t job_seq = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] {
                return stop_ || (task_ && round_ != seen_round) ||
                       !jobs_.empty();
            });
            if (stop_)
                return;
            if (task_ && round_ != seen_round) {
                // Rounds are latency-sensitive barriers with a caller
                // blocked on them: they pre-empt the job queue.
                seen_round = round_;
            } else {
                job = jobs_.top().run;
                job_seq = jobs_.top().seq;
                jobs_.pop();
            }
        }
        if (job) {
            if (passesFaultGate(job_seq))
                job();
            // A killed job is simply dropped: destroying its
            // packaged_task makes the future throw broken_promise.
        } else {
            runRound(slot);
        }
    }
}

void
ThreadPool::setFaultInjector(std::shared_ptr<FaultInjector> injector)
{
    std::lock_guard<std::mutex> lock(mutex_);
    faultInjector_ = std::move(injector);
}

bool
ThreadPool::passesFaultGate(std::uint64_t seq)
{
    std::shared_ptr<FaultInjector> injector;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        injector = faultInjector_;
    }
    if (!injector)
        return true;
    const FaultAction action = injector->at(FaultSite::PoolJob, seq);
    switch (action.kind) {
    case FaultAction::Kind::Kill:
        return false;
    case FaultAction::Kind::Stall:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(action.millis));
        return true;
    default:
        return true;
    }
}

void
ThreadPool::enqueueJob(std::function<void()> run, int priority)
{
    if (threadCount_ == 1) {
        // No dedicated workers: run inline, as parallelFor does.
        // The fault gate still applies — a single-worker pool can
        // kill or stall its jobs like any other.
        std::uint64_t seq;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            seq = jobSeq_++;
        }
        if (passesFaultGate(seq))
            run();
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        jobs_.push(QueuedJob{priority, jobSeq_++, std::move(run)});
    }
    wake_.notify_one();
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
    std::uint64_t job_seq = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (jobs_.empty())
            return false;
        job = jobs_.top().run;
        job_seq = jobs_.top().seq;
        jobs_.pop();
    }
    if (passesFaultGate(job_seq))
        job();
    return true;
}

void
ThreadPool::runRound(int slot)
{
    for (;;) {
        std::size_t item;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (abandonRound_ || next_ >= count_)
                return;
            item = next_++;
            ++inFlight_;
        }
        try {
            (*task_)(item, slot);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!firstError_)
                firstError_ = std::current_exception();
            abandonRound_ = true;
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --inFlight_;
            if (inFlight_ == 0 &&
                (abandonRound_ || next_ >= count_)) {
                done_.notify_all();
            }
        }
    }
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
    if (workers == shared().threadCount()) {
        shared().parallelFor(count, task);
        return;
    }
    ThreadPool pool(workers);
    pool.parallelFor(count, task);
}

void
ThreadPool::runChunked(
    int threads, std::size_t items, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t, std::size_t, int)>
        &task)
{
    require(chunk >= 1, "ThreadPool::runChunked: chunk must be >= 1");
    const std::size_t chunks = chunkCount(items, chunk);
    if (chunks == 0)
        return;
    const auto runOne = [&](std::size_t c, int slot) {
        const std::size_t begin = c * chunk;
        const std::size_t end = std::min(items, begin + chunk);
        task(c, begin, end, slot);
    };
    const int workers = resolveThreadCount(threads, chunks);
    if (workers <= 1) {
        for (std::size_t c = 0; c < chunks; ++c)
            runOne(c, 0);
        return;
    }
    run(workers, chunks, runOne);
}

void
ThreadPool::parallelFor(
    std::size_t count,
    const std::function<void(std::size_t, int)> &task)
{
    if (count == 0)
        return;
    if (threadCount_ == 1 || count == 1) {
        // Inline fast path: no handoff, exceptions propagate
        // directly.
        for (std::size_t item = 0; item < count; ++item)
            task(item, 0);
        return;
    }

    // One round at a time: the job slots below are single-occupancy,
    // so concurrent callers (e.g. two samplers sharing the global
    // pool) take turns.
    std::lock_guard<std::mutex> round_lock(roundMutex_);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        task_ = &task;
        count_ = count;
        next_ = 0;
        inFlight_ = 0;
        abandonRound_ = false;
        firstError_ = nullptr;
        ++round_;
    }
    wake_.notify_all();

    runRound(/*slot=*/0);

    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [&] {
            return inFlight_ == 0 &&
                   (abandonRound_ || next_ >= count_);
        });
        task_ = nullptr;
        error = firstError_;
    }
    if (error)
        std::rethrow_exception(error);
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &task)
{
    parallelFor(count,
                [&task](std::size_t item, int) { task(item); });
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
