/**
 * @file
 * Admission telemetry: the ExecutionService's predicted-vs-measured
 * cost and peak queue depth, across 1/2/4 workers.  The predictions
 * drive deadline shedding (tests/resil); queue order is priority then
 * FIFO (ThreadPool's own tests).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/pipeline.hpp"
#include "api/service.hpp"

namespace {

using hammer::api::ExecutionService;
using hammer::api::ExecutionServiceOptions;
using hammer::api::ExperimentSpec;

ExperimentSpec
bvSpec(int size, std::uint64_t seed)
{
    ExperimentSpec spec;
    spec.workload = "bv:" + std::to_string(size);
    spec.backend = "channel";
    spec.backendSpec.shots = 1000;
    spec.backendSpec.seed = seed;
    return spec;
}

} // namespace

TEST(ServiceAdmission, TracksPredictedAndMeasuredCost)
{
    for (const int workers : {1, 2, 4}) {
        ExecutionServiceOptions options;
        options.workers = workers;
        ExecutionService service(options);

        std::vector<ExperimentSpec> specs;
        for (std::uint64_t seed = 1; seed <= 6; ++seed)
            specs.push_back(bvSpec(6, seed));
        std::vector<ExecutionService::JobHandle> handles;
        for (const ExperimentSpec &spec : specs)
            handles.push_back(service.submit(spec));
        for (auto &handle : handles)
            (void)service.wait(handle);

        const auto stats = service.stats();
        EXPECT_GT(stats.predictedCostSeconds, 0.0)
            << workers << " workers";
        EXPECT_GT(stats.measuredCostSeconds, 0.0)
            << workers << " workers";
        if (workers == 1) {
            EXPECT_EQ(stats.queuePeakDepth, 0u)
                << "inline execution never queues";
        }
    }
}

TEST(ServiceAdmission, QueuePeakDepthAppearsInStatsJson)
{
    ExecutionServiceOptions options;
    options.workers = 2;
    ExecutionService service(options);
    std::vector<ExperimentSpec> specs;
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        specs.push_back(bvSpec(6, seed));
    (void)service.runMany(specs);

    const std::string json = hammer::api::serviceStatsJson(
        service.stats(), service.workers());
    EXPECT_NE(json.find("\"queue_peak_depth\""), std::string::npos);
    EXPECT_NE(json.find("\"predicted_cost_seconds\""),
              std::string::npos);
    EXPECT_NE(json.find("\"measured_cost_seconds\""),
              std::string::npos);
}
