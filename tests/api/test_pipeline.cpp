/**
 * @file
 * Pipeline: end-to-end runs, boundary validation, runMany
 * determinism across thread counts, and Result serialization.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "api/pipeline.hpp"
#include "api/service.hpp"
#include "core/io.hpp"
#include "graph/generators.hpp"

namespace {

using hammer::api::BackendSpec;
using hammer::api::canonicalResultJson;
using hammer::api::ExperimentSpec;
using hammer::api::Pipeline;
using hammer::api::Result;
using hammer::api::RunState;
using hammer::core::Distribution;

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

TEST(Pipeline, RunProducesAScoredResult)
{
    const Result result = Pipeline().run(smallBvSpec(3));
    EXPECT_EQ(result.workloadSpec, "bv:6");
    EXPECT_EQ(result.family, "bv");
    EXPECT_EQ(result.backendName, "channel");
    EXPECT_EQ(result.mitigationName, "hammer");
    EXPECT_EQ(result.measuredQubits, 6);
    EXPECT_EQ(result.shots, 2000);
    EXPECT_TRUE(result.raw.normalized());
    EXPECT_TRUE(result.mitigated.normalized());
    EXPECT_FALSE(identical(result.raw, result.mitigated))
        << "the hammer stage must have transformed the histogram";

    // Scored: BV has a known correct outcome.
    EXPECT_TRUE(std::isfinite(result.pstRaw));
    EXPECT_GT(result.pstRaw, 0.0);
    EXPECT_GT(result.pstMitigated, result.pstRaw)
        << "HAMMER should improve PST on this workload";
    EXPECT_GT(result.hammerStats.uniqueOutcomes, 0u);

    // Every stage is timed, plus one "mitigate:<stage>" detail row
    // per mitigation-chain stage.
    for (const char *stage :
         {"workload", "backend", "sample", "mitigate", "score"})
        EXPECT_GE(result.stageSeconds(stage), 0.0) << stage;
    EXPECT_EQ(result.timings.size(), 6u);
    EXPECT_EQ(result.timings[4].stage, "mitigate:hammer");
    EXPECT_LE(result.stageSeconds("mitigate:hammer"),
              result.stageSeconds("mitigate"));
    EXPECT_GT(result.totalSeconds(), 0.0);
}

TEST(Pipeline, RunIsDeterministicInTheSpec)
{
    const Result a = Pipeline().run(smallBvSpec(11));
    const Result b = Pipeline().run(smallBvSpec(11));
    EXPECT_TRUE(identical(a.raw, b.raw));
    EXPECT_TRUE(identical(a.mitigated, b.mitigated));
    const Result c = Pipeline().run(smallBvSpec(12));
    EXPECT_FALSE(identical(a.raw, c.raw)) << "seed must matter";
}

TEST(Pipeline, ValidatesAtTheBoundary)
{
    Pipeline pipeline;

    ExperimentSpec no_workload;
    EXPECT_THROW(pipeline.run(no_workload), std::invalid_argument);

    auto bad_shots = smallBvSpec(1);
    bad_shots.backendSpec.shots = 0;
    EXPECT_THROW(pipeline.run(bad_shots), std::invalid_argument);
    bad_shots.backendSpec.shots = -100;
    EXPECT_THROW(pipeline.run(bad_shots), std::invalid_argument);

    auto bad_trajectories = smallBvSpec(1);
    bad_trajectories.backend = "trajectory";
    bad_trajectories.backendSpec.trajectories = -1;
    EXPECT_THROW(pipeline.run(bad_trajectories),
                 std::invalid_argument);

    auto bad_workload = smallBvSpec(1);
    bad_workload.workload = "warp:4";
    EXPECT_THROW(pipeline.run(bad_workload), std::invalid_argument);

    auto bad_backend = smallBvSpec(1);
    bad_backend.backend = "warpdrive";
    EXPECT_THROW(pipeline.run(bad_backend), std::invalid_argument);

    auto bad_mitigation = smallBvSpec(1);
    bad_mitigation.mitigation = "sorcery";
    EXPECT_THROW(pipeline.run(bad_mitigation),
                 std::invalid_argument);
}

TEST(Pipeline, RunManyIsBitIdenticalForEveryThreadCount)
{
    // The acceptance-criterion test: a mixed batch fanned across 1
    // and 4 workers must produce byte-for-byte identical histograms.
    std::vector<ExperimentSpec> specs;
    for (std::uint64_t seed : {1, 2, 3}) {
        specs.push_back(smallBvSpec(seed));
        ExperimentSpec ghz;
        ghz.workload = "ghz:5";
        ghz.backendSpec.shots = 1500;
        ghz.backendSpec.seed = seed;
        specs.push_back(ghz);
        ExperimentSpec qaoa;
        qaoa.workload = "qaoa:6:1";
        qaoa.backend = "trajectory";
        qaoa.backendSpec.trajectories = 10;
        qaoa.backendSpec.shots = 500;
        qaoa.backendSpec.seed = seed;
        qaoa.mitigation = "readout,hammer";
        specs.push_back(qaoa);
    }

    Pipeline pipeline;
    const auto serial = pipeline.runMany(specs, 1);
    const auto parallel = pipeline.runMany(specs, 4);

    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_TRUE(identical(serial[i].raw, parallel[i].raw))
            << "raw histogram diverged on spec " << i;
        EXPECT_TRUE(
            identical(serial[i].mitigated, parallel[i].mitigated))
            << "mitigated histogram diverged on spec " << i;
        EXPECT_EQ(serial[i].workloadSpec, parallel[i].workloadSpec);
    }
}

TEST(Pipeline, LibrarySamplingMatchesTheServedHistogram)
{
    // A library caller that samples the workload a spec builds, on
    // the spec's backend and RNG, gets the histogram the pipeline
    // serves: every backend has one sampling path, and its output
    // does not depend on the thread count (3 served, default here).
    Pipeline pipeline;
    for (const char *backend :
         {"trajectory", "channel", "exact", "auto"}) {
        ExperimentSpec spec = smallBvSpec(7);
        spec.backend = backend;
        spec.backendSpec.trajectories = 40;
        spec.backendSpec.threads = 3;

        RunState state;
        pipeline.buildWorkload(spec, state);
        const auto sampler =
            pipeline.backends().make(spec.backend, spec.backendSpec);
        const Distribution library = sampler->sample(
            state.workload->routed, state.workload->measuredQubits,
            spec.backendSpec.shots, state.rng);
        EXPECT_TRUE(identical(library, pipeline.run(spec).raw))
            << backend;
    }
}

TEST(Pipeline, EnsembleRunIsBitIdenticalForEveryThreadCount)
{
    // Ensemble mitigation re-executes the workload under each
    // mapping through the same sampling path, so the whole Result
    // keeps the thread-count-invariance contract.
    for (const char *backend : {"channel", "trajectory"}) {
        ExperimentSpec spec = smallBvSpec(5);
        spec.backend = backend;
        spec.backendSpec.shots = 9000;
        spec.backendSpec.trajectories = 24;
        spec.mitigation = "ensemble,hammer";
        spec.backendSpec.threads = 1;
        const Result one = Pipeline().run(spec);
        spec.backendSpec.threads = 4;
        const Result four = Pipeline().run(spec);
        EXPECT_EQ(one.mitigationName, "ensemble+hammer");
        EXPECT_EQ(canonicalResultJson(one.json()),
                  canonicalResultJson(four.json()))
            << backend;
    }
}

TEST(Pipeline, RunManyPreservesSpecOrder)
{
    std::vector<ExperimentSpec> specs;
    ExperimentSpec ghz;
    ghz.workload = "ghz:4";
    ghz.backendSpec.shots = 500;
    specs.push_back(ghz);
    specs.push_back(smallBvSpec(5));
    const auto results = Pipeline().runMany(specs, 2);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].family, "ghz");
    EXPECT_EQ(results[1].family, "bv");
}

TEST(Result, CsvMatchesTheInterchangeWriter)
{
    const Result result = Pipeline().run(smallBvSpec(3));
    std::ostringstream via_result, via_io;
    result.writeCsv(via_result);
    hammer::core::writeDistributionCsv(via_io, result.mitigated);
    EXPECT_EQ(via_result.str(), via_io.str());

    // CSV round-trips through the reader.
    const auto reread =
        hammer::core::readDistributionCsv(via_result.str());
    EXPECT_EQ(reread.support(), result.mitigated.support());
}

TEST(Result, JsonCarriesHistogramStatsAndTimings)
{
    const Result result = Pipeline().run(smallBvSpec(3));
    const std::string json = result.json();
    for (const char *needle :
         {"\"workload\":\"bv:6\"", "\"backend\":\"channel\"",
          "\"mitigation\":\"hammer\"", "\"shots\":2000",
          "\"timings\":", "\"sample\":", "\"hammer_stats\":",
          "\"unique_outcomes\":", "\"metrics\":", "\"pst_raw\":",
          "\"histogram\":", "\"raw\":[", "\"mitigated\":[",
          "\"correct_outcomes\":"})
        EXPECT_NE(json.find(needle), std::string::npos)
            << "missing " << needle << " in:\n" << json;

    // max_outcomes truncates the histogram arrays.
    const std::string truncated = result.json(1);
    EXPECT_LT(truncated.size(), json.size());
}

TEST(Result, JsonRendersUnscoredMetricsAsNull)
{
    // A workload with no known correct outcomes: explicit-angle QAOA
    // without the brute-force optimum.
    ExperimentSpec spec;
    spec.workloadInstance = hammer::api::makeQaoaWorkload(
        hammer::graph::ring(6), 1, false, 0, 0, "ring",
        /*compute_optimum=*/false);
    spec.backendSpec.shots = 500;
    const Result result = Pipeline().run(spec);
    EXPECT_TRUE(std::isnan(result.pstRaw));
    EXPECT_NE(result.json().find("\"pst_raw\":null"),
              std::string::npos);
}

} // namespace
