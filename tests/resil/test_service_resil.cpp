/**
 * @file
 * ExecutionService resilience policies: deadline-aware admission and
 * load shedding (including the ShedDecision chaos seam), degraded
 * serving from cached lower-budget results (always explicitly
 * flagged, never silent), per-key-class retry budgets, their
 * service_stats counters, and shutdown() racing concurrent
 * submit/waitFor at 1/2/4 workers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/service.hpp"
#include "chaos/fault_plan.hpp"
#include "resil/resil.hpp"

namespace {

using hammer::api::DeadlineInfeasibleError;
using hammer::api::ExecutionService;
using hammer::api::ExecutionServiceOptions;
using hammer::api::ExperimentSpec;
using hammer::api::Result;
using hammer::api::ServiceShutdownError;
using hammer::api::ServiceStats;
using hammer::api::serviceStatsJson;
using hammer::chaos::FaultPlan;
using hammer::chaos::FaultPlanOptions;
using hammer::resil::RetryBudgetExhaustedError;

ExperimentSpec
spec(std::uint64_t seed, int trajectories = 10)
{
    ExperimentSpec s;
    s.workload = "bv:5";
    s.backend = "trajectory";
    s.backendSpec.shots = 64;
    s.backendSpec.trajectories = trajectories;
    s.backendSpec.seed = seed;
    return s;
}

TEST(ServiceAdmission, InfeasibleDeadlineShedsBeforeExecution)
{
    ExecutionServiceOptions options;
    options.workers = 1;
    ExecutionService service{options};

    // A deadline of 1e-7 ms is below any workload's predicted cost:
    // the job is shed at submit(), before any compute is spent.
    try {
        service.submit(spec(1), 0, 1e-7);
        FAIL() << "expected DeadlineInfeasibleError";
    } catch (const DeadlineInfeasibleError &error) {
        EXPECT_GT(error.predictedMs(), 0.0);
        EXPECT_EQ(error.deadlineMs(), 1e-7);
    }

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.deadlineRejections, 1u);
    EXPECT_EQ(stats.shedForced, 0u);
    EXPECT_EQ(stats.submitted, 0u) << "shed jobs are not admitted";
    EXPECT_EQ(stats.executeRuns, 0u);
}

TEST(ServiceAdmission, GenerousDeadlineAdmitsAndCompletes)
{
    ExecutionServiceOptions options;
    options.workers = 1;
    ExecutionService service{options};

    const Result result =
        service.wait(service.submit(spec(2), 0, 1e9));
    EXPECT_EQ(result.shots, 64);
    EXPECT_FALSE(result.degraded);
    EXPECT_EQ(service.stats().deadlineRejections, 0u);
}

TEST(ServiceAdmission, CacheHitsAreNeverShed)
{
    ExecutionServiceOptions options;
    options.workers = 1;
    ExecutionService service{options};

    // Warm the result cache, then re-submit the identical spec with
    // an impossible deadline: a cache hit costs nothing, so the
    // admission rule must not shed it.
    service.wait(service.submit(spec(3)));
    const Result hit =
        service.wait(service.submit(spec(3), 0, 1e-7));
    EXPECT_EQ(hit.shots, 64);
    EXPECT_FALSE(hit.degraded);
    EXPECT_EQ(service.stats().deadlineRejections, 0u);
}

TEST(ServiceAdmission, ChaosSeamForcesShedsDeterministically)
{
    FaultPlanOptions faults;
    faults.shedForceRate = 1.0;

    ExecutionServiceOptions options;
    options.workers = 1;
    options.faultInjector = std::make_shared<FaultPlan>(11, faults);
    ExecutionService service{options};

    // No deadline at all — the seam alone forces the shed, and the
    // error's deadlineMs() is 0 to mark the chaos-forced case.
    try {
        service.submit(spec(4));
        FAIL() << "expected DeadlineInfeasibleError";
    } catch (const DeadlineInfeasibleError &error) {
        EXPECT_EQ(error.deadlineMs(), 0.0);
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.shedForced, 1u);
    EXPECT_EQ(stats.deadlineRejections, 1u);
}

TEST(ServiceDegraded, ServesCachedLowerBudgetExplicitlyFlagged)
{
    ExecutionServiceOptions options;
    options.workers = 1;
    options.degradedServing = true;
    ExecutionService service{options};

    // Warm the cache with a 10-trajectory run of the same spec
    // family, then ask for 40 trajectories under an impossible
    // deadline: instead of shedding, the service answers with the
    // cached lower-budget result, explicitly flagged.
    const Result small = service.wait(service.submit(spec(5, 10)));
    const Result degraded =
        service.wait(service.submit(spec(5, 40), 0, 1e-7));

    EXPECT_TRUE(degraded.degraded);
    EXPECT_FALSE(small.degraded);
    ASSERT_EQ(degraded.mitigated.entries().size(),
              small.mitigated.entries().size());
    for (std::size_t i = 0; i < small.mitigated.entries().size();
         ++i) {
        EXPECT_EQ(degraded.mitigated.entries()[i].outcome,
                  small.mitigated.entries()[i].outcome);
        EXPECT_EQ(degraded.mitigated.entries()[i].probability,
                  small.mitigated.entries()[i].probability);
    }

    // The flag survives serialization — and only appears when set.
    EXPECT_NE(degraded.json(-1).find("\"degraded\":true"),
              std::string::npos);
    EXPECT_EQ(small.json(-1).find("degraded"), std::string::npos);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.degradedServed, 1u);
    EXPECT_EQ(stats.deadlineRejections, 0u);

    // The substitute must not have been cached under the requested
    // key: a feasible re-submit of the 40-trajectory spec executes
    // for real and comes back unflagged.
    const Result real = service.wait(service.submit(spec(5, 40)));
    EXPECT_FALSE(real.degraded);
    EXPECT_GT(service.stats().executeRuns, stats.executeRuns);
}

TEST(ServiceDegraded, NeverSubstitutesWhenDisabled)
{
    ExecutionServiceOptions options;
    options.workers = 1;
    ExecutionService service{options}; // degradedServing off

    service.wait(service.submit(spec(6, 10)));
    // Same warm cache, impossible deadline: with degraded serving
    // off the job is shed loudly — a stale answer is never silently
    // substituted.
    EXPECT_THROW(service.submit(spec(6, 40), 0, 1e-7),
                 DeadlineInfeasibleError);
    EXPECT_EQ(service.stats().degradedServed, 0u);
}

TEST(ServiceRetryBudget, ExhaustionFailsTypedInsteadOfRetrying)
{
    FaultPlanOptions faults;
    faults.workerKillRate = 1.0; // Every attempt dies.

    ExecutionServiceOptions options;
    options.workers = 1;
    options.faultInjector = std::make_shared<FaultPlan>(21, faults);
    options.retryBudget = true;
    options.retryBudgetOptions.initialTokens = 0.0;
    options.retryBudgetOptions.tokensPerDeposit = 0.0;
    ExecutionService service{options};

    // The first injected death wants a retry; the dry budget denies
    // it, so the job fails with the typed policy error after exactly
    // one attempt — no unbounded retrying.
    const auto handle = service.submit(spec(7));
    try {
        service.wait(handle);
        FAIL() << "expected RetryBudgetExhaustedError";
    } catch (const RetryBudgetExhaustedError &error) {
        EXPECT_EQ(error.attempts(), 1);
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.retryBudgetExhausted, 1u);
    EXPECT_EQ(stats.retries, 0u);
}

TEST(ServiceRetryBudget, AmpleBudgetStillRetriesToCompletion)
{
    FaultPlanOptions faults;
    faults.workerKillRate = 0.4;

    ExecutionServiceOptions options;
    options.workers = 1;
    options.maxRetries = 8;
    options.faultInjector = std::make_shared<FaultPlan>(22, faults);
    options.retryBudget = true;
    // Explicitly ample: each attempt has two kill points, so a 0.4
    // rate draws ~2 retries per job — provision well clear of that.
    options.retryBudgetOptions.initialTokens = 64.0;
    ExecutionService service{options};

    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const Result result =
            service.wait(service.submit(spec(seed)));
        EXPECT_EQ(result.shots, 64);
    }
    EXPECT_EQ(service.stats().retryBudgetExhausted, 0u);
}

TEST(ServiceStatsJson, CarriesTheResilienceCounters)
{
    ExecutionServiceOptions options;
    options.workers = 1;
    ExecutionService service{options};
    service.wait(service.submit(spec(11)));

    const std::string json =
        serviceStatsJson(service.stats(), service.workers());
    for (const char *key :
         {"\"deadline_rejections\"", "\"shed_forced\"",
          "\"degraded_served\"", "\"retry_budget_exhausted\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
}

/**
 * shutdown() racing concurrent submit/waitFor: every racing submit
 * either completes normally or throws ServiceShutdownError — never a
 * hang, never a torn Result — and the drain invariant
 * (completed + coalesced == submitted) holds at the end.
 */
void
shutdownRace(int workers)
{
    ExecutionServiceOptions options;
    options.workers = workers;
    auto service = std::make_unique<ExecutionService>(options);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 6;
    std::atomic<int> accepted{0};
    std::atomic<int> rejected{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> submitters;
    submitters.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&, t] {
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < kPerThread; ++i) {
                try {
                    const auto handle = service->submit(
                        spec(1 + t * kPerThread + i, 5));
                    // waitFor exercises the timed path under the
                    // same race; accepted jobs must still drain.
                    auto result = service->waitFor(
                        handle, std::chrono::seconds(60));
                    EXPECT_TRUE(result.has_value());
                    if (result) {
                        EXPECT_EQ(result->shots, 64);
                    }
                    ++accepted;
                } catch (const ServiceShutdownError &) {
                    ++rejected;
                }
            }
        });
    }
    go.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    service->shutdown();
    for (auto &thread : submitters)
        thread.join();

    const ServiceStats stats = service->stats();
    EXPECT_EQ(accepted.load() + rejected.load(),
              kThreads * kPerThread);
    EXPECT_EQ(stats.completed + stats.coalesced, stats.submitted)
        << "drain invariant after shutdown";
    EXPECT_EQ(stats.shutdownRejections,
              static_cast<std::uint64_t>(rejected.load()));
}

TEST(ServiceShutdownRace, OneWorker) { shutdownRace(1); }
TEST(ServiceShutdownRace, TwoWorkers) { shutdownRace(2); }
TEST(ServiceShutdownRace, FourWorkers) { shutdownRace(4); }

} // namespace
