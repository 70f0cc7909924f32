/**
 * @file
 * Chaos CI suite over ExecutionService: under injected worker
 * deaths, cache poisoning, lost coalescing registrations, queue
 * floods and stalls, every job ends in a bit-identical Result or a
 * clean typed error, within a deadline — for 1, 2 and 4 workers.
 *
 * Every scenario is seeded: a failure reproduces from the FaultPlan
 * seed in the test body, independent of thread scheduling.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/pipeline.hpp"
#include "api/service.hpp"
#include "chaos/fault_plan.hpp"

namespace {

using hammer::api::ExecutionService;
using hammer::api::ExecutionServiceOptions;
using hammer::api::ExperimentSpec;
using hammer::api::parseSpecLine;
using hammer::api::Pipeline;
using hammer::api::QueueSaturatedError;
using hammer::api::Result;
using hammer::api::resultChecksum;
using hammer::api::WorkerLostError;
using hammer::chaos::FaultPlan;
using hammer::chaos::FaultPlanOptions;
using hammer::chaos::hostileSpecLines;
using hammer::core::Distribution;

/** The chaos acceptance deadline: typed answer or bust. */
constexpr std::chrono::milliseconds kDeadline{30000};

bool
identical(const Distribution &a, const Distribution &b)
{
    if (a.numBits() != b.numBits() || a.support() != b.support())
        return false;
    for (std::size_t i = 0; i < a.entries().size(); ++i) {
        if (a.entries()[i].outcome != b.entries()[i].outcome ||
            a.entries()[i].probability != b.entries()[i].probability)
            return false;
    }
    return true;
}

ExperimentSpec
smallBvSpec(std::uint64_t seed)
{
    ExperimentSpec spec;
    spec.workload = "bv:6";
    spec.backend = "channel";
    spec.backendSpec.machine = "machineB";
    spec.backendSpec.shots = 2000;
    spec.backendSpec.seed = seed;
    spec.mitigation = "hammer";
    return spec;
}

std::vector<ExperimentSpec>
chaosSpecs()
{
    std::vector<ExperimentSpec> specs;
    for (std::uint64_t seed : {1, 2, 3}) {
        specs.push_back(smallBvSpec(seed));
        ExperimentSpec ghz;
        ghz.workload = "ghz:5";
        ghz.backendSpec.shots = 1500;
        ghz.backendSpec.seed = seed;
        specs.push_back(ghz);
    }
    return specs;
}

class ChaosService : public ::testing::TestWithParam<int>
{
  protected:
    int workers() const { return GetParam(); }

    ExecutionServiceOptions
    optionsWith(std::shared_ptr<FaultPlan> plan) const
    {
        ExecutionServiceOptions options;
        options.workers = workers();
        options.faultInjector = std::move(plan);
        return options;
    }
};

TEST_P(ChaosService, WorkerDeathsRetryToBitIdenticalResults)
{
    // Kill ~36% of job attempts (two fault points at 0.2 each); the
    // retry budget absorbs every death for this seed, and each
    // retried Result must still match Pipeline::run byte for byte.
    FaultPlanOptions faults;
    faults.workerKillRate = 0.2;
    auto plan = std::make_shared<FaultPlan>(1234, faults);

    ExecutionServiceOptions options = optionsWith(plan);
    options.maxRetries = 5;
    ExecutionService service(options);

    const Pipeline pipeline;
    const auto specs = chaosSpecs();
    std::vector<ExecutionService::JobHandle> handles;
    for (const ExperimentSpec &spec : specs)
        handles.push_back(service.submit(spec));

    for (std::size_t i = 0; i < handles.size(); ++i) {
        const auto result = service.waitFor(handles[i], kDeadline);
        ASSERT_TRUE(result.has_value()) << "job " << i
                                        << " missed the deadline";
        const Result expected = pipeline.run(specs[i]);
        EXPECT_TRUE(identical(expected.raw, result->raw))
            << "spec " << i << ": raw diverged after retry";
        EXPECT_TRUE(identical(expected.mitigated, result->mitigated))
            << "spec " << i << ": mitigated diverged after retry";
    }

    const auto stats = service.stats();
    EXPECT_GT(stats.workerDeaths, 0u) << "seed injected nothing";
    EXPECT_EQ(stats.workerDeaths, stats.retries)
        << "every death should have been retried, none exhausted";
    EXPECT_EQ(stats.workerLost, 0u);
    EXPECT_EQ(stats.completed + stats.coalesced, stats.submitted);
}

TEST_P(ChaosService, ExhaustedRetriesSurfaceWorkerLostWithinDeadline)
{
    FaultPlanOptions faults;
    faults.workerKillRate = 1.0; // every attempt dies
    ExecutionServiceOptions options =
        optionsWith(std::make_shared<FaultPlan>(7, faults));
    options.maxRetries = 2;
    ExecutionService service(options);

    const auto handle = service.submit(smallBvSpec(1));
    EXPECT_THROW(
        { (void)service.waitFor(handle, kDeadline); },
        WorkerLostError);

    const auto stats = service.stats();
    EXPECT_EQ(stats.workerDeaths, 3u); // initial try + 2 retries
    EXPECT_EQ(stats.retries, 2u);
    EXPECT_EQ(stats.workerLost, 1u);
    EXPECT_EQ(stats.completed + stats.coalesced, stats.submitted);
}

TEST_P(ChaosService, CachePoisonIsDetectedAndRecomputed)
{
    FaultPlanOptions faults;
    faults.cachePoisonRate = 1.0; // corrupt every cache insert
    ExecutionService service(
        optionsWith(std::make_shared<FaultPlan>(21, faults)));

    const ExperimentSpec spec = smallBvSpec(4);
    const auto first = service.waitFor(service.submit(spec),
                                       kDeadline);
    ASSERT_TRUE(first.has_value());

    // The repeat hits the poisoned result cache (and, recomputing,
    // the poisoned exec cache): both verifications must trip and the
    // recomputed answer must match the first bit for bit.
    const auto second = service.waitFor(service.submit(spec),
                                        kDeadline);
    ASSERT_TRUE(second.has_value());
    EXPECT_TRUE(identical(first->raw, second->raw));
    EXPECT_TRUE(identical(first->mitigated, second->mitigated));

    const auto stats = service.stats();
    EXPECT_GE(stats.cachePoisonDetected, 2u)
        << "result + exec cache poison should both be caught";
    EXPECT_EQ(stats.resultCache.hits, 0u)
        << "a poisoned hit must not count as served";
}

TEST_P(ChaosService, PoisonedInsertNeverReachesPeersOrWaiters)
{
    // Every cache insert is poisoned, but only the cache's own copy
    // may be: a spec, its repeat (which coalesces) and its readout
    // variant (which shares the exec outcome), all submitted before
    // any wait, get the values a fault-free service computes; only
    // a later hit meets the poison, and rejects it.
    FaultPlanOptions faults;
    faults.cachePoisonRate = 1.0;
    ExecutionService service(
        optionsWith(std::make_shared<FaultPlan>(41, faults)));
    ExecutionService faultFree(optionsWith(nullptr));

    const ExperimentSpec spec = smallBvSpec(6);
    ExperimentSpec variant = spec;
    variant.mitigation = "readout";
    const std::vector<ExperimentSpec> specs{spec, spec, variant};
    std::vector<ExecutionService::JobHandle> handles;
    for (const ExperimentSpec &each : specs)
        handles.push_back(service.submit(each));

    const auto expectGenuine = [&](const ExperimentSpec &each,
                                   const std::optional<Result> &got,
                                   const std::string &context) {
        ASSERT_TRUE(got.has_value()) << context;
        const Result expected = faultFree.wait(faultFree.submit(each));
        EXPECT_TRUE(identical(expected.raw, got->raw)) << context;
        EXPECT_TRUE(identical(expected.mitigated, got->mitigated))
            << context;
        EXPECT_EQ(resultChecksum(expected), resultChecksum(*got))
            << context;
    };
    for (std::size_t i = 0; i < handles.size(); ++i)
        expectGenuine(specs[i], service.waitFor(handles[i], kDeadline),
                      "job " + std::to_string(i));

    expectGenuine(spec,
                  service.waitFor(service.submit(spec), kDeadline),
                  "later repeat");
    EXPECT_GE(service.stats().cachePoisonDetected, 1u)
        << "the later repeat must meet the poisoned result slot";
}

TEST_P(ChaosService, DroppedCoalescingStaysCorrect)
{
    // Dropping every coalescing registration loses deduplication,
    // never correctness: identical submits run redundantly and all
    // return the same bytes.
    FaultPlanOptions faults;
    faults.coalesceDropRate = 1.0;
    ExecutionService service(
        optionsWith(std::make_shared<FaultPlan>(31, faults)));

    const ExperimentSpec spec = smallBvSpec(9);
    std::vector<ExecutionService::JobHandle> handles;
    for (int i = 0; i < 4; ++i)
        handles.push_back(service.submit(spec));

    std::vector<Result> results;
    for (const auto &handle : handles) {
        auto result = service.waitFor(handle, kDeadline);
        ASSERT_TRUE(result.has_value());
        results.push_back(std::move(*result));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
        EXPECT_TRUE(identical(results[0].raw, results[i].raw));
        EXPECT_TRUE(
            identical(results[0].mitigated, results[i].mitigated));
    }

    const auto stats = service.stats();
    EXPECT_GT(stats.coalesceDropped, 0u);
    EXPECT_EQ(stats.coalesced, 0u)
        << "with every registration dropped nothing can coalesce";
    EXPECT_EQ(stats.completed + stats.coalesced, stats.submitted);
}

TEST_P(ChaosService, SaturatedQueueRejectsWithTypedBackpressure)
{
    FaultPlanOptions faults;
    faults.workerStallRate = 1.0; // park every worker mid-job
    faults.stallMillis = 50;
    ExecutionServiceOptions options =
        optionsWith(std::make_shared<FaultPlan>(5, faults));
    options.maxQueueDepth = 1;
    ExecutionService service(options);

    std::vector<ExecutionService::JobHandle> accepted;
    std::vector<ExperimentSpec> acceptedSpecs;
    std::size_t rejected = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const ExperimentSpec spec = smallBvSpec(seed);
        try {
            accepted.push_back(service.submit(spec));
            acceptedSpecs.push_back(spec);
        } catch (const QueueSaturatedError &error) {
            ++rejected;
            EXPECT_EQ(error.limit(), 1u);
            EXPECT_GE(error.depth(), error.limit());
        }
    }
    EXPECT_GE(rejected, 1u) << "flood never saturated the queue";
    ASSERT_GE(accepted.size(), 1u);

    // Accepted jobs still finish with bit-identical results.
    const Pipeline pipeline;
    for (std::size_t i = 0; i < accepted.size(); ++i) {
        const auto result = service.waitFor(accepted[i], kDeadline);
        ASSERT_TRUE(result.has_value());
        EXPECT_TRUE(identical(pipeline.run(acceptedSpecs[i]).raw,
                              result->raw));
    }

    const auto stats = service.stats();
    EXPECT_EQ(stats.queueRejections, rejected);
    EXPECT_EQ(stats.submitted, accepted.size())
        << "rejected submits must not count as submitted";
    EXPECT_EQ(stats.completed + stats.coalesced, stats.submitted);
}

TEST_P(ChaosService, StalledJobTimesOutThenCompletes)
{
    if (workers() < 2)
        GTEST_SKIP() << "with one worker waitFor runs the stalled job "
                        "itself, so it can never time out";

    FaultPlanOptions faults;
    faults.workerStallRate = 1.0;
    faults.stallMillis = 400;
    ExecutionService service(
        optionsWith(std::make_shared<FaultPlan>(13, faults)));

    const ExperimentSpec spec = smallBvSpec(2);
    const auto handle = service.submit(spec);
    // Let a dedicated worker claim the job so the deadline below is
    // spent waiting on a genuinely stalled peer, not draining.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    const auto timedOut =
        service.waitFor(handle, std::chrono::milliseconds(50));
    EXPECT_FALSE(timedOut.has_value());
    EXPECT_GE(service.stats().waitTimeouts, 1u);

    // The timeout is an observation, not a cancellation: the job
    // still completes and later waits see the full result.
    const auto result = service.waitFor(handle, kDeadline);
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(identical(Pipeline().run(spec).raw, result->raw));
}

TEST_P(ChaosService, SameSeedReplaysIdentically)
{
    // The replay contract: one seed fully determines a mixed-fault
    // campaign's results.  (Injection *counts* can vary with
    // scheduling when workers race the caches, so stats equality is
    // asserted only for the deterministic 1-worker schedule.)
    FaultPlanOptions faults;
    faults.workerKillRate = 0.1;
    faults.cachePoisonRate = 0.3;
    faults.coalesceDropRate = 0.3;
    faults.coalesceDelayRate = 0.3;
    faults.delayMillis = 1;

    const auto runCampaign = [&](std::shared_ptr<FaultPlan> plan) {
        ExecutionServiceOptions options = optionsWith(plan);
        options.maxRetries = 5;
        ExecutionService service(options);
        std::vector<ExecutionService::JobHandle> handles;
        const auto specs = chaosSpecs();
        for (const ExperimentSpec &spec : specs)
            handles.push_back(service.submit(spec));
        // One duplicate, so the coalescing sites are exercised.
        handles.push_back(service.submit(specs.front()));
        std::vector<Result> results;
        for (const auto &handle : handles) {
            auto result = service.waitFor(handle, kDeadline);
            EXPECT_TRUE(result.has_value());
            if (result)
                results.push_back(std::move(*result));
        }
        return results;
    };

    auto planA = std::make_shared<FaultPlan>(77, faults);
    auto planB = std::make_shared<FaultPlan>(77, faults);
    const auto first = runCampaign(planA);
    const auto second = runCampaign(planB);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_TRUE(identical(first[i].raw, second[i].raw))
            << "replay diverged at job " << i;
        EXPECT_TRUE(
            identical(first[i].mitigated, second[i].mitigated))
            << "replay diverged at job " << i;
    }
    if (workers() == 1) {
        const auto statsA = planA->stats();
        const auto statsB = planB->stats();
        EXPECT_EQ(statsA.decisions, statsB.decisions);
        EXPECT_EQ(statsA.kills, statsB.kills);
        EXPECT_EQ(statsA.poisons, statsB.poisons);
        EXPECT_EQ(statsA.drops, statsB.drops);
    }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ChaosService,
                         ::testing::Values(1, 2, 4));

TEST(ChaosFlood, HostileSpecLinesDegradeToTypedErrors)
{
    // Every line of the flood must either parse or throw the
    // parser's one typed error — no crash, no stray exception type.
    const auto flood = hostileSpecLines(5, 160);
    std::size_t parsed = 0;
    std::size_t rejected = 0;
    for (const std::string &line : flood) {
        try {
            const auto spec = parseSpecLine(line);
            EXPECT_FALSE(spec.spec.workload.empty());
            ++parsed;
        } catch (const std::invalid_argument &) {
            ++rejected;
        }
        // Anything else (std::bad_alloc, segfault, std::logic_error)
        // propagates and fails the test.
    }
    EXPECT_EQ(parsed + rejected, flood.size());
    EXPECT_GE(parsed, 5u) << "flood lost its valid sprinkling";
    EXPECT_GE(rejected, 40u) << "flood lost its hostility";
}

} // namespace
