/**
 * @file
 * Plan-accuracy bench: the calibrated cost model against wall-clock,
 * and the `auto` backend against every hand-picked backend.
 *
 * One bv/qaoa sweep grid, executed under each concrete backend
 * (trajectory, channel) and under `auto`.  Per cell the bench records
 * predicted milliseconds (plan::estimateCost under the active
 * calibration) next to measured wall-clock, so BENCH_plan.json is
 * both the accuracy scoreboard CI tracks *and* the telemetry corpus
 * tools/hammer_calibrate re-fits coefficients from.
 *
 * Every cell first runs each hand-picked backend and `auto` once,
 * untimed, so no contestant pays a warm-up the others skip (the
 * distribution memo, the allocator, the thread pool), then times
 * kRounds interleaved rounds of all of them.  A contestant's cell
 * time is the median over the rounds of its median call time.
 *
 * Two hard checks back the perf claim:
 *
 *   - bit-identity: `auto`'s histogram must equal, entry for entry,
 *     the histogram of whichever backend it selected (the cost model
 *     picks plans, it never changes results);
 *   - the 20% gate: summed over the grid's per-cell medians, `auto`
 *     must land within 1.2x of the best hand-picked backend's total,
 *     else exit 1.  Disabled under sanitizers — shadow-memory
 *     overhead skews backends unevenly and the wall-clock ratio is
 *     meaningless there.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "api/autoplan.hpp"
#include "plan/cost_model.hpp"
#include "support/report.hpp"

// Sanitizer instrumentation slows backends unevenly (shadow-memory
// traffic scales with loads/stores, not arithmetic), so the
// auto-vs-best wall-clock gate is meaningless on those CI legs.
#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HAMMER_BENCH_SANITIZED 1
#else
#define HAMMER_BENCH_SANITIZED 0
#endif

namespace {

using namespace hammer;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count();
}

/** Timed rounds per cell, after one untimed warm-up. */
constexpr int kRounds = 5;

/**
 * Shortest round.  A round repeats passes of one call per contestant,
 * each call timed, until it spans this long; a contestant's round
 * time is its median call time.  Smoke-sized calls take tens of
 * microseconds: one call per round would measure the machine's load
 * at that instant, and a mean would charge a preempted call to
 * whichever contestant it hit.  Consecutive passes run the
 * contestants in opposite orders, so each one follows each
 * neighbour equally often and inherits the same cache state.
 */
constexpr double kMinRoundSeconds = 100e-3;

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

/** True when two distributions are bit-identical (exact doubles). */
bool
identical(const core::Distribution &a, const core::Distribution &b)
{
    if (a.numBits() != b.numBits() ||
        a.entries().size() != b.entries().size())
        return false;
    for (std::size_t i = 0; i < a.entries().size(); ++i) {
        if (a.entries()[i].outcome != b.entries()[i].outcome ||
            a.entries()[i].probability != b.entries()[i].probability)
            return false;
    }
    return true;
}

} // namespace

int
main()
{
    using namespace hammer;

    bench::BenchReport report("plan");

    // The sweep grid.  grid_seed/grid_shots/grid_trajectories are
    // recorded so hammer_calibrate can rebuild each cell's feature
    // vector from the workload spec alone.
    const std::uint64_t grid_seed = 1;
    const int shots = api::smokeShots(4096);
    const int trajectories = api::smokeCount(200, 40);
    std::vector<std::string> cells;
    for (const int size : api::smokeSizes({6, 8, 10, 12}, 2, 8))
        cells.push_back("bv:" + std::to_string(size));
    for (const int size : api::smokeSizes({6, 8, 10}, 1, 6))
        cells.push_back("qaoa:ring:" + std::to_string(size) + ":2");
    report.metric("grid_seed", static_cast<double>(grid_seed));
    report.metric("grid_shots", shots);
    report.metric("grid_trajectories", trajectories);
    report.note("grid_machine", "machineA");

    const std::vector<std::string> handPicked = {"channel",
                                                 "trajectory"};
    std::vector<double> handTotals(handPicked.size(), 0.0);
    double autoTotal = 0.0;
    bool identicalEverywhere = true;

    std::printf("== Plan accuracy (%zu cells x %zu backends + auto, "
                "%d shots, %d trajectories, median of %d rounds) ==\n",
                cells.size(), handPicked.size(), shots, trajectories,
                kRounds);
    report.metric("timed_rounds", kRounds);

    for (const std::string &cell : cells) {
        api::BackendSpec backendSpec;
        backendSpec.shots = shots;
        backendSpec.trajectories = trajectories;
        backendSpec.seed = grid_seed;

        common::Rng wrng(grid_seed);
        const api::Workload workload =
            api::WorkloadRegistry::global().make(cell, wrng);
        const noise::NoiseModel model =
            api::resolveNoiseModel(backendSpec);
        const plan::PlanFeatures features = plan::extractFeatures(
            workload.routed.circuit, model, shots, trajectories);

        // The contestants: every hand-picked backend, then auto.
        std::vector<std::unique_ptr<noise::NoisySampler>> samplers;
        for (const std::string &backend : handPicked)
            samplers.push_back(
                api::BackendRegistry::global().make(backend,
                                                    backendSpec));
        auto autoOwned = std::make_unique<api::AutoSampler>(backendSpec);
        const api::AutoSampler &autoSampler = *autoOwned;
        samplers.push_back(std::move(autoOwned));
        const auto run = [&](noise::NoisySampler &sampler) {
            common::Rng rng(grid_seed);
            return sampler.sampleBatch(workload.routed,
                                       workload.measuredQubits, shots,
                                       rng, backendSpec.threads);
        };

        std::vector<core::Distribution> results;
        for (const auto &sampler : samplers)
            results.push_back(run(*sampler));
        std::vector<std::vector<double>> seconds(samplers.size());
        for (int round = 0; round < kRounds; ++round) {
            std::vector<std::vector<double>> calls(samplers.size());
            const auto roundStart = std::chrono::steady_clock::now();
            for (int pass = 0;
                 pass == 0 || secondsSince(roundStart) < kMinRoundSeconds;
                 ++pass) {
                for (std::size_t k = 0; k < samplers.size(); ++k) {
                    const std::size_t i =
                        pass % 2 ? samplers.size() - 1 - k : k;
                    const auto start = std::chrono::steady_clock::now();
                    run(*samplers[i]);
                    calls[i].push_back(secondsSince(start));
                }
            }
            for (std::size_t i = 0; i < samplers.size(); ++i)
                seconds[i].push_back(median(calls[i]));
        }

        // Hand-picked backends: predicted vs measured per cell.
        for (std::size_t b = 0; b < handPicked.size(); ++b) {
            const std::string &backend = handPicked[b];
            plan::PlanChoice choice;
            choice.backend = backend;
            const double predicted =
                plan::estimateCost(features, choice,
                                   plan::activeCalibration())
                    .seconds;
            const double measured = median(seconds[b]);
            handTotals[b] += measured;

            report.metric("predicted_ms__" + backend + "__" + cell,
                          predicted * 1e3);
            report.metric("measured_ms__" + backend + "__" + cell,
                          measured * 1e3);
            std::printf("%-16s %-10s predicted %8.2f ms, "
                        "measured %8.2f ms\n",
                        cell.c_str(), backend.c_str(),
                        predicted * 1e3, measured * 1e3);
        }

        // The auto backend, then bit-identity against whichever
        // backend it selected.
        const double autoPredicted =
            autoSampler.rank(workload.routed).front().cost.seconds;
        const double autoMeasured = median(seconds.back());
        autoTotal += autoMeasured;
        report.metric("predicted_ms__auto__" + cell,
                      autoPredicted * 1e3);
        report.metric("measured_ms__auto__" + cell,
                      autoMeasured * 1e3);

        const std::string selected = autoSampler.lastChoice().backend;
        report.note("auto_choice__" + cell, selected);
        const core::Distribution &autoDist = results.back();
        bool cellIdentical = true;
        for (std::size_t b = 0; b < handPicked.size(); ++b) {
            if (handPicked[b] != selected)
                continue;
            cellIdentical = identical(autoDist, results[b]);
        }
        if (selected != "channel" && selected != "trajectory") {
            // auto picked a backend outside the hand-picked set
            // (exact): rerun that backend directly.
            cellIdentical = identical(
                autoDist,
                run(*api::BackendRegistry::global().make(selected,
                                                         backendSpec)));
        }
        identicalEverywhere = identicalEverywhere && cellIdentical;
        std::printf("%-16s %-10s predicted %8.2f ms, "
                    "measured %8.2f ms -> %s%s\n",
                    cell.c_str(), "auto", autoPredicted * 1e3,
                    autoMeasured * 1e3, selected.c_str(),
                    cellIdentical ? " (bit-identical)"
                                  : " (MISMATCH)");
    }

    double bestTotal = handTotals[0];
    std::string bestBackend = handPicked[0];
    for (std::size_t b = 1; b < handPicked.size(); ++b) {
        if (handTotals[b] < bestTotal) {
            bestTotal = handTotals[b];
            bestBackend = handPicked[b];
        }
    }
    const double ratio =
        bestTotal > 0.0 ? autoTotal / bestTotal : 1.0;
    for (std::size_t b = 0; b < handPicked.size(); ++b)
        report.metric("total_ms__" + handPicked[b],
                      handTotals[b] * 1e3);
    report.metric("total_ms__auto", autoTotal * 1e3);
    report.metric("auto_vs_best_ratio", ratio);
    report.metric("bit_identical", identicalEverywhere ? 1.0 : 0.0);
    report.note("best_backend", bestBackend);

    std::printf("totals: auto %.1f ms vs best hand-picked (%s) "
                "%.1f ms -> ratio %.3f\n",
                autoTotal * 1e3, bestBackend.c_str(), bestTotal * 1e3,
                ratio);

    if (!identicalEverywhere) {
        std::fprintf(stderr,
                     "FAIL: auto histogram differs from its selected "
                     "backend\n");
        return 1;
    }
#if !HAMMER_BENCH_SANITIZED
    if (ratio > 1.2) {
        std::fprintf(stderr,
                     "FAIL: auto %.3fx of best hand-picked backend "
                     "(gate: 1.2x)\n",
                     ratio);
        return 1;
    }
#endif
    std::printf("PASS\n");
    return 0;
}
