/**
 * @file
 * The serving interchange surface the sharded transport stands on:
 * ExecutionService::shutdown() semantics, the machine-readable
 * service-stats JSON line, Result JSON round-trips through
 * resultFromJson/canonicalResultJson, and the optional priority
 * field in both spec-line syntaxes.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "api/json.hpp"
#include "api/pipeline.hpp"
#include "api/service.hpp"

namespace {

using hammer::api::canonicalResultJson;
using hammer::api::ExecutionService;
using hammer::api::ExecutionServiceOptions;
using hammer::api::ExperimentSpec;
using hammer::api::parseJson;
using hammer::api::parseSpecLine;
using hammer::api::Result;
using hammer::api::resultFromJson;
using hammer::api::ServiceShutdownError;
using hammer::api::serviceStatsJson;

ExperimentSpec
smallSpec(std::uint64_t seed = 1)
{
    ExperimentSpec spec;
    spec.workload = "bv:4";
    spec.backend = "channel";
    spec.backendSpec.shots = 128;
    spec.backendSpec.seed = seed;
    return spec;
}

// ---------------------------------------------------------------------------
// shutdown()
// ---------------------------------------------------------------------------

TEST(Shutdown, DrainsAcceptedWorkThenRejectsNewSubmits)
{
    ExecutionServiceOptions options;
    options.workers = 2;
    ExecutionService service{options};
    std::vector<ExecutionService::JobHandle> handles;
    for (int i = 0; i < 6; ++i)
        handles.push_back(service.submit(smallSpec(i + 1)));

    service.shutdown();
    EXPECT_TRUE(service.isShutdown());

    // Everything accepted before the call completes normally.
    for (const auto &handle : handles) {
        const Result result = service.wait(handle);
        EXPECT_EQ(result.family, "bv");
    }

    // New work is refused with the typed error, and counted.
    EXPECT_THROW(service.submit(smallSpec()), ServiceShutdownError);
    EXPECT_THROW(service.submit(smallSpec()), ServiceShutdownError);
    EXPECT_EQ(service.stats().shutdownRejections, 2u);

    // wait() on a drained handle still works after shutdown.
    EXPECT_EQ(service.wait(handles.front()).family, "bv");
}

TEST(Shutdown, IsIdempotent)
{
    ExecutionService service;
    const auto handle = service.submit(smallSpec());
    service.shutdown();
    service.shutdown();
    service.shutdown();
    EXPECT_TRUE(service.isShutdown());
    EXPECT_EQ(service.wait(handle).family, "bv");
    EXPECT_EQ(service.stats().shutdownRejections, 0u);
}

TEST(Shutdown, ErrorIsAlsoAServiceError)
{
    ExecutionService service;
    service.shutdown();
    // Callers hardened against ServiceError need no new catch site.
    EXPECT_THROW(service.submit(smallSpec()),
                 hammer::api::ServiceError);
}

// ---------------------------------------------------------------------------
// The service-stats JSON line
// ---------------------------------------------------------------------------

TEST(ServiceStatsJson, IsOneParseableLineWithTheFullCounterSet)
{
    ExecutionService service{};
    service.wait(service.submit(smallSpec()));
    service.wait(service.submit(smallSpec())); // Cache hit.

    const std::string line =
        serviceStatsJson(service.stats(), service.workers());
    EXPECT_EQ(line.find('\n'), std::string::npos)
        << "must be a single line for log scraping";

    const auto stats = parseJson(line);
    EXPECT_EQ(stats.at("type").asString(), "service_stats");
    EXPECT_EQ(stats.at("submitted").asNumber(), 2.0);
    EXPECT_EQ(stats.at("completed").asNumber(), 2.0);
    EXPECT_EQ(stats.at("execute_runs").asNumber(), 1.0);
    EXPECT_EQ(stats.at("result_cache").at("hits").asNumber(), 1.0);
    EXPECT_EQ(stats.at("result_cache").at("misses").asNumber(), 1.0);
    EXPECT_GE(stats.at("workers").asNumber(), 1.0);
    EXPECT_GT(stats.at("busy_seconds").asNumber(), 0.0);
    EXPECT_EQ(stats.at("shutdown_rejections").asNumber(), 0.0);
}

// ---------------------------------------------------------------------------
// Result JSON round-trips (the wire payload format)
// ---------------------------------------------------------------------------

TEST(ResultJson, RoundTripsByteExactThroughResultFromJson)
{
    ExperimentSpec spec = smallSpec();
    spec.label = "wire-test";
    spec.mitigation = "readout,hammer";
    ExecutionService service;
    const Result original = service.wait(service.submit(spec));

    const std::string json = original.json(-1);
    const Result decoded = resultFromJson(json);
    EXPECT_EQ(decoded.json(-1), json)
        << "decode/re-encode must be byte-exact";
    EXPECT_EQ(decoded.label, "wire-test");
    EXPECT_EQ(decoded.family, original.family);
    EXPECT_EQ(decoded.raw.entries().size(),
              original.raw.entries().size());
}

TEST(ResultJson, HammerPathRoundTripsAndIsEmittedOnlyForTheTransform)
{
    // bv:10 at 3000 shots puts ~500 outcomes, most of them one-shot
    // ties, on 10 bits: HAMMER takes the transform path.
    ExperimentSpec spec = smallSpec(4);
    spec.workload = "bv:10";
    spec.backendSpec.shots = 3000;
    const Result transform = hammer::api::Pipeline().run(spec);
    ASSERT_EQ(transform.hammerStats.path,
              hammer::core::HammerPath::Transform);
    const std::string json = transform.json(-1);
    const Result decoded = resultFromJson(json);
    EXPECT_EQ(decoded.hammerStats.path,
              hammer::core::HammerPath::Transform);
    EXPECT_EQ(decoded.json(-1), json);
    EXPECT_EQ(parseJson(json).at("hammer_stats").at("path").asString(),
              "transform");
    const std::string key = "\"path\":\"transform\"";
    std::string unknown = json;
    unknown.replace(unknown.find(key), key.size(), "\"path\":\"fft\"");
    EXPECT_THROW(resultFromJson(unknown), std::invalid_argument);

    // A scan-path Result keeps its historical bytes: no "path" key.
    const Result scan = hammer::api::Pipeline().run(smallSpec());
    ASSERT_EQ(scan.hammerStats.path, hammer::core::HammerPath::Scan);
    EXPECT_EQ(parseJson(scan.json(-1)).at("hammer_stats").find("path"),
              nullptr);
    EXPECT_EQ(resultFromJson(scan.json(-1)).hammerStats.path,
              hammer::core::HammerPath::Scan);
}

TEST(ResultJson, CanonicalFormDropsIdentityButNotPhysics)
{
    ExperimentSpec spec = smallSpec();
    spec.label = "first-label";
    ExecutionService service;
    const Result result = service.wait(service.submit(spec));
    const std::string canonical =
        canonicalResultJson(result.json(-1));

    // Identity/timing fields are gone; the physics stays.
    const auto parsed = parseJson(canonical);
    EXPECT_EQ(parsed.find("label"), nullptr);
    EXPECT_EQ(parsed.find("timings"), nullptr);
    EXPECT_NE(parsed.at("histogram").find("raw"), nullptr);
    EXPECT_NE(parsed.at("histogram").find("mitigated"), nullptr);

    // Two runs differing only in label canonicalise identically —
    // the bit-identity comparator the sharded transport gates on.
    spec.label = "second-label";
    const Result relabeled = service.wait(service.submit(spec));
    EXPECT_EQ(canonicalResultJson(relabeled.json(-1)), canonical);

    // Canonicalising is idempotent.
    EXPECT_EQ(canonicalResultJson(canonical), canonical);
}

// ---------------------------------------------------------------------------
// The priority field (CSV 8th field; JSON key is covered alongside
// the other keys in test_service.cpp)
// ---------------------------------------------------------------------------

TEST(SpecLinePriority, ParsesTheEighthCsvField)
{
    const auto parsed = parseSpecLine(
        "bv:5, channel, 512, 3, hammer, machineA, lbl, 7");
    EXPECT_EQ(parsed.priority, 7);
    EXPECT_EQ(parsed.spec.label, "lbl");

    const auto negative = parseSpecLine(
        "bv:5,channel,512,3,hammer,machineA,lbl,-2");
    EXPECT_EQ(negative.priority, -2);

    // Omitted -> neutral priority.
    EXPECT_EQ(parseSpecLine("bv:5,channel,512").priority, 0);
}

TEST(SpecLinePriority, MalformedValuesAreNamedErrors)
{
    for (const std::string line :
         {"bv:5,channel,512,3,hammer,machineA,lbl,soon",
          "bv:5,channel,512,3,hammer,machineA,lbl,1.5",
          "{\"workload\": \"bv:5\", \"priority\": \"high\"}",
          "{\"workload\": \"bv:5\", \"priority\": 1.5}"}) {
        try {
            parseSpecLine(line);
            FAIL() << "expected std::invalid_argument for: " << line;
        } catch (const std::invalid_argument &error) {
            EXPECT_NE(
                std::string(error.what()).find("priority"),
                std::string::npos)
                << error.what();
        }
    }
}

TEST(SpecLinePriority, FlowsFromSpecLineThroughSubmit)
{
    // Drain order under priority is proven deterministically at the
    // pool layer (ThreadPool.SubmitDrainsHighestPriorityFirstThenFifo);
    // here: the parsed field reaches submit() and priorities do not
    // perturb results.
    ExecutionServiceOptions options;
    options.workers = 2;
    ExecutionService service{options};
    std::vector<ExecutionService::JobHandle> handles;
    for (int i = 0; i < 4; ++i) {
        const auto parsed = parseSpecLine(
            "bv:4,channel,128," + std::to_string(i + 1) +
            ",hammer,machineA,p" + std::to_string(i) + "," +
            std::to_string(10 - i));
        handles.push_back(
            service.submit(parsed.spec, parsed.priority));
    }
    for (int i = 0; i < 4; ++i) {
        const Result result = service.wait(handles[i]);
        EXPECT_EQ(result.label, "p" + std::to_string(i));
        EXPECT_EQ(result.seed, static_cast<std::uint64_t>(i + 1));
    }
}

} // namespace
