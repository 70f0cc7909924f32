/**
 * @file
 * Chaos-hardening overhead bench: what the integrity machinery costs
 * when nothing is being injected, and what the service still delivers
 * when faults are live.
 *
 * Two phases over the serving sweep:
 *
 *   checksum   direct cost of api::resultChecksum per Result against
 *              the cost of computing that Result — the <3% gate CI
 *              enforces (the bench exits non-zero above it); the
 *              service verifies every cache hit, so this is the cost
 *              of verification too
 *   faulted    the sweep under a live FaultPlan (worker kills +
 *              cache poison), proving throughput survives injection
 *
 * Emits BENCH_chaos.json in smoke mode so CI tracks the overhead
 * trajectory push over push.
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "chaos/fault_plan.hpp"
#include "support/report.hpp"

namespace {

using namespace hammer;

/** The gate: checksumming a Result must stay under 3% of its cost. */
constexpr double kMaxChecksumOverheadPct = 3.0;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count();
}

std::vector<api::ExperimentSpec>
makeSweep()
{
    const std::vector<int> sizes =
        api::smokeSizes({6, 8, 10}, /*keep=*/2, /*max_size=*/7);
    const int seeds = api::smokeCount(3, 2);
    const int shots = api::smokeShots(4096);

    std::vector<api::ExperimentSpec> specs;
    for (const int size : sizes) {
        for (int seed = 1; seed <= seeds; ++seed) {
            api::ExperimentSpec bv;
            bv.workload = "bv:" + std::to_string(size);
            bv.backend = "channel";
            bv.backendSpec.shots = shots;
            bv.backendSpec.seed = static_cast<std::uint64_t>(seed);
            bv.mitigation = "hammer";
            specs.push_back(bv);

            api::ExperimentSpec ghz;
            ghz.workload = "ghz:" + std::to_string(size);
            ghz.backend = "channel";
            ghz.backendSpec.shots = shots;
            ghz.backendSpec.seed = static_cast<std::uint64_t>(seed);
            ghz.mitigation = "readout,hammer";
            specs.push_back(ghz);
        }
    }
    return specs;
}

} // namespace

int
main()
{
    bench::BenchReport report("chaos");
    const std::vector<api::ExperimentSpec> sweep = makeSweep();
    std::printf("== Chaos-hardening overhead (%zu specs) ==\n",
                sweep.size());

    // Phase 1: direct checksum cost.  Compute the sweep once, then
    // time resultChecksum over the computed Results in a tight loop;
    // the gate compares per-Result digest time to per-Result compute
    // time, which is robust against machine noise in a way a full
    // A/B wall-clock diff is not.
    const api::Pipeline pipeline;
    std::vector<api::Result> results;
    auto start = std::chrono::steady_clock::now();
    for (const auto &spec : sweep)
        results.push_back(pipeline.run(spec));
    const double compute_seconds = secondsSince(start);

    const int checksum_rounds = 200;
    std::uint64_t digests = 0;
    start = std::chrono::steady_clock::now();
    for (int round = 0; round < checksum_rounds; ++round)
        for (const auto &result : results)
            digests ^= api::resultChecksum(result);
    const double checksum_seconds =
        secondsSince(start) / checksum_rounds;
    volatile std::uint64_t sink = digests; // keep the loop honest
    (void)sink;

    const double overhead_pct =
        100.0 * checksum_seconds / compute_seconds;
    std::printf("compute %.4f s, checksum %.6f s per sweep pass -> "
                "%.3f%% overhead (gate %.1f%%)\n",
                compute_seconds, checksum_seconds, overhead_pct,
                kMaxChecksumOverheadPct);

    // Phase 2: the sweep under live faults — kills retry, poisons
    // recompute, and the service still finishes everything.
    chaos::FaultPlanOptions faults;
    faults.workerKillRate = 0.1;
    faults.cachePoisonRate = 0.2;
    api::ExecutionServiceOptions chaosOptions;
    chaosOptions.maxRetries = 5;
    chaosOptions.faultInjector =
        std::make_shared<chaos::FaultPlan>(2026, faults);
    api::ExecutionService faulted(chaosOptions);
    start = std::chrono::steady_clock::now();
    faulted.runMany(sweep);
    const double faulted_seconds = secondsSince(start);
    const auto stats = faulted.stats();
    const double faulted_jobs_per_second =
        static_cast<double>(sweep.size()) / faulted_seconds;
    std::printf("faulted sweep %.4f s (%.1f jobs/s), %llu deaths "
                "retried, %llu poison detections\n",
                faulted_seconds, faulted_jobs_per_second,
                static_cast<unsigned long long>(stats.workerDeaths),
                static_cast<unsigned long long>(
                    stats.cachePoisonDetected));

    report.metric("specs", static_cast<double>(sweep.size()));
    report.metric("compute_seconds", compute_seconds);
    report.metric("checksum_seconds_per_sweep", checksum_seconds);
    report.metric("checksum_overhead_pct", overhead_pct);
    report.metric("faulted_seconds", faulted_seconds);
    report.metric("faulted_jobs_per_second", faulted_jobs_per_second);
    report.metric("worker_deaths",
                  static_cast<double>(stats.workerDeaths));
    report.metric("poison_detections",
                  static_cast<double>(stats.cachePoisonDetected));

    if (overhead_pct >= kMaxChecksumOverheadPct) {
        std::printf("FAIL: checksum overhead %.3f%% exceeds the "
                    "%.1f%% budget\n",
                    overhead_pct, kMaxChecksumOverheadPct);
        return 1;
    }
    std::printf("checksum overhead within budget\n");
    return 0;
}
