/**
 * @file
 * ShardRouter resilience policies over a real in-process fleet:
 * bounded affinity LRU, per-shard circuit breakers (fast-fail when
 * every breaker is open), the global retry budget, and the
 * kill-and-flap replay campaign — same seed, bit-identical results
 * and policy counters.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/service.hpp"
#include "chaos/fault_plan.hpp"
#include "net/router.hpp"
#include "net/shard_worker.hpp"
#include "net/socket.hpp"
#include "resil/resil.hpp"

namespace {

using hammer::api::canonicalResultJson;
using hammer::api::ExecutionService;
using hammer::api::ExecutionServiceOptions;
using hammer::api::parseSpecLine;
using hammer::api::SpecLine;
using hammer::chaos::FaultPlan;
using hammer::chaos::FaultPlanOptions;
using hammer::net::BreakerOpenError;
using hammer::net::Listener;
using hammer::net::RouterStats;
using hammer::net::ShardRouter;
using hammer::net::ShardRouterOptions;
using hammer::net::ShardWorker;
using hammer::net::ShardWorkerOptions;
using hammer::net::Socket;
using hammer::resil::RetryBudgetExhaustedError;

/** N in-process shard workers on Unix sockets in a fresh temp dir. */
class Fleet
{
  public:
    explicit Fleet(int count)
    {
        char tmpl[] = "/tmp/hammer_resil_XXXXXX";
        const char *dir = ::mkdtemp(tmpl);
        EXPECT_NE(dir, nullptr);
        dir_ = dir;
        for (int i = 0; i < count; ++i) {
            workers_.push_back(std::make_unique<ShardWorker>(
                "unix:" + dir_ + "/s" + std::to_string(i) +
                    ".sock",
                ShardWorkerOptions{}));
            threads_.emplace_back(
                [worker = workers_.back().get()] {
                    worker->run();
                });
        }
    }

    ~Fleet()
    {
        for (auto &worker : workers_)
            worker->stop();
        for (auto &thread : threads_)
            thread.join();
        ::rmdir(dir_.c_str());
    }

    std::vector<std::string> addresses() const
    {
        std::vector<std::string> out;
        for (const auto &worker : workers_)
            out.push_back(worker->address());
        return out;
    }

  private:
    std::string dir_;
    std::vector<std::unique_ptr<ShardWorker>> workers_;
    std::vector<std::thread> threads_;
};

/** A campaign with repeats: distinct keys plus affinity traffic. */
std::vector<std::string>
campaignLines()
{
    std::vector<std::string> lines;
    for (int seed = 1; seed <= 4; ++seed) {
        lines.push_back(
            "{\"workload\": \"bv:5\", \"backend\": \"channel\", "
            "\"shots\": 256, \"seed\": " +
            std::to_string(seed) + "}");
        lines.push_back("ghz:4,channel,256," +
                        std::to_string(seed));
    }
    for (int repeat = 0; repeat < 3; ++repeat) {
        lines.push_back("bv:5,channel,256,1");
        lines.push_back("ghz:4,channel,256,2");
    }
    return lines;
}

/** Canonical forms of a local (in-process) run over @p lines. */
std::vector<std::string>
localCanonical(const std::vector<std::string> &lines)
{
    ExecutionServiceOptions options;
    options.workers = 1;
    ExecutionService service{options};
    std::vector<ExecutionService::JobHandle> handles;
    for (const std::string &line : lines) {
        const SpecLine parsed = parseSpecLine(line);
        handles.push_back(
            service.submit(parsed.spec, parsed.priority));
    }
    std::vector<std::string> out;
    for (const auto &handle : handles)
        out.push_back(canonicalResultJson(
            service.wait(handle).json(-1)));
    return out;
}

TEST(RouterAffinity, LruCapBoundsTheMapAndKeepsResultsExact)
{
    const auto lines = campaignLines();
    const auto expected = localCanonical(lines);

    Fleet fleet(2);
    ShardRouterOptions options;
    options.addresses = fleet.addresses();
    // Far fewer slots than distinct exec keys: the map must evict
    // instead of growing, and correctness must not depend on it.
    options.affinityCapacity = 2;
    ShardRouter router{options};

    const auto raw = router.runMany(lines);
    ASSERT_EQ(raw.size(), expected.size());
    for (std::size_t i = 0; i < raw.size(); ++i)
        EXPECT_EQ(canonicalResultJson(raw[i]), expected[i])
            << "line " << i;

    EXPECT_GT(router.stats().affinityEvictions, 0u)
        << "more distinct keys than capacity must evict";
}

TEST(RouterAffinity, CapacityBelowOneIsRejected)
{
    ShardRouterOptions options;
    options.addresses = {"unix:/tmp/never-connected.sock"};
    options.affinityCapacity = 0;
    EXPECT_THROW(ShardRouter{options}, std::invalid_argument);
}

TEST(RouterBreaker, FleetWideOpenFailsFastWithTypedError)
{
    FaultPlanOptions faults;
    faults.shardSendKillRate = 1.0; // Every send attempt dies.

    Fleet fleet(1);
    ShardRouterOptions options;
    options.addresses = fleet.addresses();
    options.faultInjector = std::make_shared<FaultPlan>(5, faults);
    options.breakerFailureThreshold = 1;
    // A long backoff keeps the breaker open for the whole test, so
    // the second submit must fast-fail without a single dispatch.
    options.breakerBackoffBaseMs = 60000.0;
    ShardRouter router{options};

    EXPECT_THROW(router.wait(router.submit("bv:5,channel,128,1")),
                 BreakerOpenError);
    const RouterStats after_first = router.stats();
    EXPECT_GE(after_first.breakerTrips, 1u);
    EXPECT_GE(after_first.breakerFastFails, 1u);

    EXPECT_THROW(router.wait(router.submit("ghz:4,channel,128,1")),
                 BreakerOpenError);
    const RouterStats after_second = router.stats();
    EXPECT_EQ(after_second.breakerFastFails,
              after_first.breakerFastFails + 1);
    EXPECT_EQ(after_second.dispatched, after_first.dispatched)
        << "an open breaker must refuse before any send";
}

TEST(RouterBreaker, RecoveredShardClosesTheBreaker)
{
    FaultPlanOptions faults;
    faults.shardSendKillRate = 1.0;

    Fleet fleet(1);
    ShardRouterOptions options;
    options.addresses = fleet.addresses();
    options.breakerFailureThreshold = 1;
    // Sequence-driven breaker: the open interval elapses
    // immediately, so the next dispatch probes half-open.
    options.breakerBackoffBaseMs = 0.0;
    {
        // First, trip the breaker with a kill-everything plan.
        ShardRouterOptions broken = options;
        broken.faultInjector =
            std::make_shared<FaultPlan>(6, faults);
        broken.maxAttempts = 3;
        ShardRouter router{broken};
        EXPECT_THROW(router.wait(router.submit("bv:5,channel,64,1")),
                     hammer::net::RouterError);
        EXPECT_GE(router.stats().breakerTrips, 1u);
    }
    // A fresh plan-free router over the same (healthy) fleet: after
    // one failure the half-open probe succeeds and traffic flows.
    ShardRouter router{options};
    const auto results =
        router.runMany({"bv:5,channel,64,1", "bv:5,channel,64,1"});
    EXPECT_EQ(results.size(), 2u);
}

TEST(RouterRetryBudget, DryBudgetFailsTypedWithoutRetryStorm)
{
    FaultPlanOptions faults;
    faults.shardSendKillRate = 1.0;

    Fleet fleet(1);
    ShardRouterOptions options;
    options.addresses = fleet.addresses();
    options.faultInjector = std::make_shared<FaultPlan>(7, faults);
    options.retryBudget = true;
    options.retryBudgetOptions.initialTokens = 0.0;
    options.retryBudgetOptions.tokensPerDeposit = 0.0;
    ShardRouter router{options};

    // Attempt 0 is free (not a retry); the injected kill wants
    // attempt 1, which the dry budget denies.
    EXPECT_THROW(router.wait(router.submit("bv:5,channel,64,1")),
                 RetryBudgetExhaustedError);
    const RouterStats stats = router.stats();
    EXPECT_EQ(stats.retryBudgetExhausted, 1u);
    EXPECT_EQ(stats.retries, 1u)
        << "exactly one denied retry, no storm";
}

/**
 * The heartbeat monitor is the only detector of a shard that stays
 * connected but stops answering.  A listener that accepts and never
 * reads or writes sits beside one live shard; the jobs routed to it
 * must re-route once its last ack is older than the 50 ms interval
 * plus the monitor's 1 s grace, and every result must still match a
 * local run.
 */
TEST(RouterHeartbeat, SilentShardIsDeclaredDeadAndItsJobsReroute)
{
    std::vector<std::string> lines;
    for (int seed = 1; seed <= 6; ++seed)
        lines.push_back("bv:5,channel,256," + std::to_string(seed));
    const auto expected = localCanonical(lines);

    char tmpl[] = "/tmp/hammer_silent_XXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    Listener silent("unix:" + std::string(dir) + "/silent.sock");
    std::vector<Socket> held; // Accepted, never read or answered.
    std::thread acceptor([&] {
        for (Socket conn = silent.accept(); conn.valid();
             conn = silent.accept())
            held.push_back(std::move(conn));
    });

    Fleet live(1);
    ShardRouterOptions options;
    options.addresses = {silent.address(), live.addresses().front()};
    options.heartbeatIntervalMs = 50;
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::string> raw;
    RouterStats stats;
    {
        // Catch here: the acceptor must be joined on every path.
        ShardRouter router{options};
        try {
            raw = router.runMany(lines);
        } catch (const std::exception &error) {
            ADD_FAILURE() << error.what();
        }
        stats = router.stats();
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    silent.close();
    acceptor.join();
    ::rmdir(dir);

    ASSERT_EQ(raw.size(), expected.size());
    for (std::size_t i = 0; i < raw.size(); ++i)
        EXPECT_EQ(canonicalResultJson(raw[i]), expected[i])
            << "line " << i;
    EXPECT_GE(stats.shardDeaths, 1u);
    EXPECT_GE(stats.reroutes, 1u);
    EXPECT_GE(stats.heartbeatsSent, 1u);
    EXPECT_LT(elapsed, std::chrono::seconds(5));
}

/**
 * The acceptance campaign: kill-and-flap chaos (lost sends plus
 * denied half-open probes) with breakers and retry budgets enabled.
 * Jobs are submitted serially so every policy decision happens on
 * the submitting thread, making the whole run a pure function of
 * the seed: two same-seed runs must produce bit-identical result
 * lines AND bit-identical policy counters, and surviving jobs must
 * match a fault-free local run exactly.
 */
TEST(RouterBreakerChaos, KillAndFlapRepliesBitIdentically)
{
    const auto lines = campaignLines();
    const auto expected = localCanonical(lines);

    struct Capture
    {
        std::vector<std::string> outcomes;
        RouterStats stats;
    };

    const auto run = [&lines]() -> Capture {
        FaultPlanOptions faults;
        faults.shardSendKillRate = 0.25;
        faults.breakerProbeDenyRate = 0.2;

        Fleet fleet(2);
        ShardRouterOptions options;
        options.addresses = fleet.addresses();
        options.faultInjector =
            std::make_shared<FaultPlan>(1337, faults);
        options.breakerFailureThreshold = 1;
        options.breakerBackoffBaseMs = 0.0; // Sequence-driven.
        options.breakerSeed = 1337;
        options.retryBudget = true; // Ample default tokens.
        ShardRouter router{options};

        Capture capture;
        for (const std::string &line : lines) {
            // Serial: one job in flight at a time.
            const std::uint64_t id = router.submit(line);
            try {
                capture.outcomes.push_back(
                    canonicalResultJson(router.wait(id)));
            } catch (const std::exception &error) {
                capture.outcomes.push_back(
                    std::string("<error> ") + error.what());
            }
        }
        capture.stats = router.stats();
        return capture;
    };

    const Capture first = run();
    const Capture second = run();

    ASSERT_EQ(first.outcomes.size(), expected.size());
    std::size_t survivors = 0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        // Replay: line-for-line identical across same-seed runs.
        EXPECT_EQ(first.outcomes[i], second.outcomes[i])
            << "line " << i;
        if (first.outcomes[i].rfind("<error>", 0) != 0) {
            ++survivors;
            // Survivors are bit-identical to the fault-free run.
            EXPECT_EQ(first.outcomes[i], expected[i])
                << "line " << i;
        }
    }
    EXPECT_GE(survivors, expected.size() / 2)
        << "the policies must keep most of the campaign alive";

    // Every policy counter replays exactly (busySeconds is wall
    // time and deliberately excluded).
    EXPECT_EQ(first.stats.submitted, second.stats.submitted);
    EXPECT_EQ(first.stats.dispatched, second.stats.dispatched);
    EXPECT_EQ(first.stats.retries, second.stats.retries);
    EXPECT_EQ(first.stats.reroutes, second.stats.reroutes);
    EXPECT_EQ(first.stats.shardDeaths, second.stats.shardDeaths);
    EXPECT_EQ(first.stats.recvDropped, second.stats.recvDropped);
    EXPECT_EQ(first.stats.breakerTrips, second.stats.breakerTrips);
    EXPECT_EQ(first.stats.breakerSkips, second.stats.breakerSkips);
    EXPECT_EQ(first.stats.breakerProbes,
              second.stats.breakerProbes);
    EXPECT_EQ(first.stats.breakerProbesDenied,
              second.stats.breakerProbesDenied);
    EXPECT_EQ(first.stats.breakerFastFails,
              second.stats.breakerFastFails);
    EXPECT_EQ(first.stats.retryBudgetExhausted,
              second.stats.retryBudgetExhausted);
    EXPECT_GT(first.stats.breakerTrips, 0u)
        << "the plan must actually trip breakers";
    EXPECT_GT(first.stats.breakerProbes, 0u)
        << "tripped breakers must probe half-open";
}

} // namespace
