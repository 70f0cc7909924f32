/**
 * @file
 * Unit tests for the fixed-size thread pool: completeness of the
 * parallel-for, slot-id contracts, exception propagation, reuse
 * across rounds, and the one priority job queue that carries both
 * submitted jobs and round helpers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace {

using hammer::common::ThreadPool;

TEST(ThreadPool, RunsEveryItemExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(257);
    pool.parallelFor(hits.size(), [&](std::size_t item) {
        hits[item].fetch_add(1);
    });
    for (const auto &hit : hits)
        EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1);
    std::vector<int> order;
    pool.parallelFor(5, [&](std::size_t item, int slot) {
        EXPECT_EQ(slot, 0);
        order.push_back(static_cast<int>(item));
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, SlotIdsStayInRange)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> per_slot(3);
    pool.parallelFor(100, [&](std::size_t, int slot) {
        ASSERT_GE(slot, 0);
        ASSERT_LT(slot, 3);
        per_slot[static_cast<std::size_t>(slot)].fetch_add(1);
    });
    int total = 0;
    for (const auto &count : per_slot)
        total += count.load();
    EXPECT_EQ(total, 100);
}

TEST(ThreadPool, ZeroItemsIsANoOp)
{
    ThreadPool pool(2);
    bool ran = false;
    pool.parallelFor(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, ReusableAcrossRounds)
{
    ThreadPool pool(4);
    for (int round = 0; round < 20; ++round) {
        std::atomic<long> sum{0};
        pool.parallelFor(64, [&](std::size_t item) {
            sum.fetch_add(static_cast<long>(item));
        });
        EXPECT_EQ(sum.load(), 64L * 63 / 2);
    }
}

TEST(ThreadPool, PerSlotAccumulatorsNeedNoSynchronisation)
{
    // The usage pattern of the sampling engine: every worker writes
    // only to its own slot, and the partials are merged afterwards.
    ThreadPool pool(4);
    std::vector<long> partial(
        static_cast<std::size_t>(pool.threadCount()), 0);
    pool.parallelFor(1000, [&](std::size_t item, int slot) {
        partial[static_cast<std::size_t>(slot)] +=
            static_cast<long>(item);
    });
    const long total =
        std::accumulate(partial.begin(), partial.end(), 0L);
    EXPECT_EQ(total, 1000L * 999 / 2);
}

TEST(ThreadPool, PropagatesTaskException)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(100,
                         [&](std::size_t item) {
                             if (item == 37)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    // The pool must still be usable after a failed round.
    std::atomic<int> hits{0};
    pool.parallelFor(10, [&](std::size_t) { hits.fetch_add(1); });
    EXPECT_EQ(hits.load(), 10);
}

TEST(ThreadPool, RejectsNegativeThreadCount)
{
    EXPECT_THROW(ThreadPool(-1), std::invalid_argument);
}

TEST(ThreadPool, DefaultThreadCountIsPositive)
{
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1);
    ThreadPool pool;
    EXPECT_GE(pool.threadCount(), 1);
}

TEST(ThreadPool, ResolveThreadCountCapsAtItemCount)
{
    EXPECT_EQ(ThreadPool::resolveThreadCount(8, 3), 3);
    EXPECT_EQ(ThreadPool::resolveThreadCount(2, 100), 2);
    EXPECT_EQ(ThreadPool::resolveThreadCount(5, 0), 1);
    EXPECT_GE(ThreadPool::resolveThreadCount(0, 1000), 1);
    EXPECT_THROW(ThreadPool::resolveThreadCount(-2, 10),
                 std::invalid_argument);
}

TEST(ThreadPool, StaticRunCoversAllItems)
{
    // A worker count matching the shared pool, and one above it
    // (capped at the shared pool's slots, no threads spawned).
    for (int workers :
         {ThreadPool::shared().threadCount(),
          ThreadPool::shared().threadCount() + 1}) {
        std::vector<std::atomic<int>> hits(57);
        ThreadPool::run(workers, hits.size(),
                        [&](std::size_t item, int slot) {
                            ASSERT_GE(slot, 0);
                            ASSERT_LT(slot, workers);
                            hits[item].fetch_add(1);
                        });
        for (const auto &hit : hits)
            EXPECT_EQ(hit.load(), 1);
    }
}

TEST(ThreadPool, SubmitReturnsAFutureWithTheResult)
{
    ThreadPool pool(2);
    auto doubled = pool.submit([] { return 21 * 2; });
    auto text = pool.submit([] { return std::string("queued"); });
    EXPECT_EQ(doubled.get(), 42);
    EXPECT_EQ(text.get(), "queued");
}

TEST(ThreadPool, SubmitCapturesExceptionsIntoTheFuture)
{
    ThreadPool pool(2);
    auto failing = pool.submit(
        []() -> int { throw std::runtime_error("job failed"); });
    EXPECT_THROW(failing.get(), std::runtime_error);
}

TEST(ThreadPool, SubmitRunsInlineOnASingleThreadPool)
{
    // No dedicated workers: the job stays queued until the caller
    // drains it with tryRunOneJob, and then runs on the caller.
    ThreadPool pool(1);
    const auto caller = std::this_thread::get_id();
    std::thread::id ran_on;
    auto done = pool.submit([&] { ran_on = std::this_thread::get_id(); });
    EXPECT_EQ(done.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout);
    EXPECT_EQ(pool.queuedJobs(), 1u);
    EXPECT_TRUE(pool.tryRunOneJob());
    EXPECT_EQ(done.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(ran_on, caller);
    EXPECT_FALSE(pool.tryRunOneJob());
}

TEST(ThreadPool, SubmitDrainsHighestPriorityFirstThenFifo)
{
    // One dedicated worker (pool of 2), gated so the queue fills
    // before anything drains: the drain order must be priority
    // descending, FIFO within a priority level.
    ThreadPool pool(2);
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    auto blocker = pool.submit([open] { open.wait(); });
    // Wait until the worker has dequeued the blocker, so the jobs
    // below pile up behind it in a fully known queue state.
    while (pool.queuedJobs() > 0)
        std::this_thread::yield();

    std::mutex order_mutex;
    std::vector<int> order;
    std::vector<std::future<void>> jobs;
    const auto record = [&](int tag) {
        std::lock_guard<std::mutex> lock(order_mutex);
        order.push_back(tag);
    };
    jobs.push_back(pool.submit([&] { record(0); }, /*priority=*/0));
    jobs.push_back(pool.submit([&] { record(1); }, /*priority=*/0));
    jobs.push_back(pool.submit([&] { record(10); }, /*priority=*/5));
    jobs.push_back(pool.submit([&] { record(11); }, /*priority=*/5));
    jobs.push_back(pool.submit([&] { record(-1); }, /*priority=*/-3));
    EXPECT_EQ(pool.queuedJobs(), 5u);

    gate.set_value();
    blocker.get();
    for (auto &job : jobs)
        job.get();
    EXPECT_EQ(order, (std::vector<int>{10, 11, 0, 1, -1}));
}

TEST(ThreadPool, TryRunOneJobLetsTheCallerParticipate)
{
    // With the only dedicated worker blocked, the caller can drain
    // the whole queue itself — the participation primitive the
    // serving layer's wait() builds on.
    ThreadPool pool(2);
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    auto blocker = pool.submit([open] { open.wait(); });
    while (pool.queuedJobs() > 0)
        std::this_thread::yield();

    std::atomic<int> ran{0};
    std::vector<std::future<void>> jobs;
    for (int i = 0; i < 3; ++i)
        jobs.push_back(pool.submit([&ran] { ran.fetch_add(1); }));
    while (pool.tryRunOneJob()) {
    }
    EXPECT_EQ(ran.load(), 3);
    EXPECT_FALSE(pool.tryRunOneJob());

    gate.set_value();
    blocker.get();
    for (auto &job : jobs)
        job.get();
}

TEST(ThreadPool, DestructorDiscardsUnstartedJobsWithBrokenPromise)
{
    // Jobs still queued at destruction are discarded — their futures
    // become ready with broken_promise, and none of their work runs
    // on the destructing thread (abandoning a batch must not grind
    // through its backlog).  The already-running job completes.
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    std::atomic<int> ran{0};
    std::future<void> started;
    std::vector<std::future<int>> discarded;
    {
        ThreadPool pool(2);
        started = pool.submit([open, &ran] {
            open.wait();
            ran.fetch_add(1);
        });
        while (pool.queuedJobs() > 0)
            std::this_thread::yield();
        for (int i = 0; i < 4; ++i)
            discarded.push_back(pool.submit([&ran, i] {
                ran.fetch_add(1);
                return i;
            }));
        gate.set_value();
        // Destructor joins the worker; the worker may pick up some
        // queued jobs before seeing stop_, the rest are discarded.
    }
    EXPECT_NO_THROW(started.get());
    int completed = 0;
    for (auto &future : discarded) {
        try {
            future.get();
            ++completed;
        } catch (const std::future_error &error) {
            EXPECT_EQ(error.code(),
                      std::future_errc::broken_promise);
        }
    }
    EXPECT_EQ(ran.load(), 1 + completed);
}

TEST(ThreadPool, SubmitAndParallelForShareTheWorkers)
{
    // Round helpers run ahead of queued jobs; both drain to
    // completion.
    ThreadPool pool(3);
    std::atomic<int> job_hits{0}, round_hits{0};
    std::vector<std::future<void>> jobs;
    for (int i = 0; i < 8; ++i)
        jobs.push_back(
            pool.submit([&] { job_hits.fetch_add(1); }));
    pool.parallelFor(32, [&](std::size_t) {
        round_hits.fetch_add(1);
    });
    for (auto &job : jobs)
        job.get();
    EXPECT_EQ(job_hits.load(), 8);
    EXPECT_EQ(round_hits.load(), 32);
}

TEST(ThreadPool, LateHelperNeverTouchesAFinishedRound)
{
    // With the only dedicated worker blocked, the caller runs every
    // item as slot 0 and returns while its helper is still queued.
    // The helper runs after the round's task is gone and must find
    // no item left.
    ThreadPool pool(2);
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    auto blocker = pool.submit([open] { open.wait(); });
    while (pool.queuedJobs() > 0)
        std::this_thread::yield();

    std::atomic<int> calls{0};
    {
        const std::function<void(std::size_t, int)> task =
            [&calls](std::size_t, int slot) {
                EXPECT_EQ(slot, 0);
                calls.fetch_add(1);
            };
        pool.parallelFor(10, task);
    }
    EXPECT_EQ(calls.load(), 10);
    EXPECT_EQ(pool.queuedJobs(), 1u) << "the unstarted helper";

    gate.set_value();
    blocker.get();
    while (pool.queuedJobs() > 0)
        std::this_thread::yield();
    EXPECT_EQ(calls.load(), 10);
}

TEST(ThreadPool, ConcurrentCallersOnSharedPoolSerialise)
{
    // Two threads driving the shared pool at once must not corrupt
    // each other's rounds.
    std::atomic<long> total{0};
    auto hammer_rounds = [&] {
        for (int round = 0; round < 25; ++round) {
            ThreadPool::shared().parallelFor(
                40, [&](std::size_t item) {
                    total.fetch_add(static_cast<long>(item));
                });
        }
    };
    std::thread a(hammer_rounds), b(hammer_rounds);
    a.join();
    b.join();
    EXPECT_EQ(total.load(), 2L * 25 * (40L * 39 / 2));
}

} // namespace
