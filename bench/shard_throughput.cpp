/**
 * @file
 * Sharded-transport scaling bench: a ShardRouter fanning a
 * repeat-heavy spec mix across 2 and 4 real shard worker processes
 * versus the single-process ExecutionService baseline.
 *
 * Three gates ride in the exit code:
 *
 *   identity   every sharded result byte-identical (canonical form)
 *              to the single-process run
 *   scale@2    modelled speedup >= 1.6x on 2 shards
 *   scale@4    modelled speedup >= 2.5x on 4 shards
 *
 * The scaling gates stand on busy_seconds — the wall-clock spent
 * inside jobs, reported by every service — not raw wall time: CI
 * containers often pin the whole process tree to one core, where N
 * worker processes time-slice instead of running concurrently.  The
 * modelled speedup baseline_busy / max(per-shard busy, router busy)
 * is the critical-path ratio those cores would realise, and it still
 * collapses to ~1x if affinity routing or shard-side caching breaks.
 * Raw jobs/sec is reported alongside, ungated.
 *
 * Emits BENCH_shard.json.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "net/router.hpp"
#include "net/shard_worker.hpp"
#include "support/report.hpp"

namespace {

using namespace hammer;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count();
}

/**
 * The repeat-heavy mix: every distinct spec appears three times,
 * interleaved, so shard-side caching is on the critical path exactly
 * as it is for real parameter-sweep traffic.
 */
std::vector<std::string>
makeLines()
{
    // Three deliberate choices against the usual smoke shrinking:
    // sizes stay at 11-12 qubits so each distinct job costs
    // milliseconds (busy_seconds must dwarf scheduler noise for the
    // speedup model to mean anything); there are enough distinct
    // exec keys (sizes x seeds) that the affinity hash can balance a
    // 4-shard fleet (with only a dozen keys the largest bin is
    // bin-packing noise, not transport behaviour); and every key
    // costs within ~1.5x of every other (one workload family), so
    // weighted bin balance tracks key-count balance.
    const std::vector<int> sizes = {11, 12};
    const int seeds = 48;
    const int shots = 8192;

    std::vector<std::string> distinct;
    for (const int size : sizes) {
        for (int seed = 1; seed <= seeds; ++seed) {
            distinct.push_back(
                "bv:" + std::to_string(size) + ",channel," +
                std::to_string(shots) + "," + std::to_string(seed) +
                ",hammer");
        }
    }
    std::vector<std::string> lines;
    for (int repeat = 0; repeat < 3; ++repeat)
        for (const std::string &line : distinct)
            lines.push_back(line);
    return lines;
}

/** One forked shard worker process. */
struct ShardProcess
{
    pid_t pid = -1;
    std::string address;
};

/**
 * Fork one worker per @p sockets entry.  Must run before the parent
 * creates any threads (fork only carries the calling thread).
 */
std::vector<ShardProcess>
forkShards(const std::vector<std::string> &sockets)
{
    std::vector<ShardProcess> shards;
    for (const std::string &path : sockets) {
        const pid_t pid = ::fork();
        if (pid < 0) {
            std::perror("fork");
            std::exit(2);
        }
        if (pid == 0) {
            net::ShardWorkerOptions options;
            options.service.workers = 2;
            net::ShardWorker worker("unix:" + path, options);
            worker.run();
            std::_Exit(0);
        }
        shards.push_back({pid, "unix:" + path});
    }
    return shards;
}

double
shardBusySeconds(net::ShardRouter &router, std::size_t index)
{
    const api::JsonValue stats =
        api::parseJson(router.fetchStats(index));
    return stats.at("busy_seconds").asNumber();
}

} // namespace

int
main()
{
    bench::BenchReport report("shard");

    // Per-job parallelism off: the bench measures the transport and
    // the process-level fan-out, not the kernels' thread scaling.
    ::setenv("HAMMER_THREADS", "1", 1);

    char tmpl[] = "/tmp/hammer_bench_shard_XXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    if (!dir) {
        std::perror("mkdtemp");
        return 2;
    }
    std::vector<std::string> sockets;
    for (int i = 0; i < 6; ++i)
        sockets.push_back(std::string(dir) + "/s" +
                          std::to_string(i) + ".sock");

    // All six children (2-shard fleet + 4-shard fleet) fork before
    // the baseline service spins up its worker threads.
    const std::vector<ShardProcess> shards = forkShards(sockets);

    const std::vector<std::string> lines = makeLines();
    std::printf("== Sharded transport scaling (%zu jobs) ==\n",
                lines.size());

    // Single-process baseline, same line-level protocol.
    std::vector<std::string> expected;
    double baseline_busy = 0.0;
    double baseline_seconds = 0.0;
    {
        api::ExecutionServiceOptions options;
        options.workers = 1;
        api::ExecutionService service{options};
        std::vector<api::ExecutionService::JobHandle> handles;
        std::vector<api::Result> results;
        const auto start = std::chrono::steady_clock::now();
        for (const std::string &line : lines) {
            const api::SpecLine parsed = api::parseSpecLine(line);
            handles.push_back(
                service.submit(parsed.spec, parsed.priority));
        }
        for (const auto &handle : handles)
            results.push_back(service.wait(handle));
        // Stop the clock where the fleets' does: every result in
        // hand.  The canonical forms are the identity gate's, not
        // serving work.
        baseline_seconds = secondsSince(start);
        baseline_busy = service.stats().busySeconds;
        for (const api::Result &result : results)
            expected.push_back(
                api::canonicalResultJson(result.json(-1)));
    }
    std::printf("baseline: %.3f s wall, %.3f s busy\n",
                baseline_seconds, baseline_busy);

    int failures = 0;
    std::size_t total_mismatches = 0;
    const double floors[] = {1.6, 2.5};
    const std::size_t fleet_sizes[] = {2, 4};
    std::size_t next_shard = 0;
    for (int phase = 0; phase < 2; ++phase) {
        const std::size_t n = fleet_sizes[phase];
        net::ShardRouterOptions options;
        for (std::size_t i = 0; i < n; ++i)
            options.addresses.push_back(
                shards[next_shard + i].address);
        next_shard += n;
        net::ShardRouter router{options};

        const auto start = std::chrono::steady_clock::now();
        const std::vector<std::string> results =
            router.runMany(lines);
        const double wall = secondsSince(start);

        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < lines.size(); ++i)
            if (api::canonicalResultJson(results[i]) != expected[i]) {
                if (mismatches == 0)
                    std::fprintf(stderr,
                                 "first mismatch, job %zu (%s):\n"
                                 "  baseline: %.200s\n"
                                 "  sharded:  %.200s\n",
                                 i, lines[i].c_str(),
                                 expected[i].c_str(),
                                 api::canonicalResultJson(results[i])
                                     .c_str());
                ++mismatches;
            }
        if (mismatches > 0) {
            std::printf("FAIL: %zu of %zu sharded results differ "
                        "from the baseline at %zu shards\n",
                        mismatches, lines.size(), n);
            total_mismatches += mismatches;
            ++failures;
        }

        double max_busy = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            max_busy = std::max(max_busy,
                                shardBusySeconds(router, i));
        const double critical =
            std::max(max_busy, router.stats().busySeconds);
        const double speedup = baseline_busy / critical;
        const double jobs_per_second =
            static_cast<double>(lines.size()) / wall;
        const double floor = floors[phase];
        std::printf("%zu shards: %.3f s wall (%.1f jobs/s), "
                    "slowest shard busy %.3f s -> modelled "
                    "%.2fx (floor %.2fx)\n",
                    n, wall, jobs_per_second, max_busy, speedup,
                    floor);
        if (speedup < floor) {
            std::printf("FAIL: modelled speedup %.2fx below the "
                        "%.2fx floor at %zu shards\n",
                        speedup, floor, n);
            ++failures;
        }

        const std::string tag = std::to_string(n);
        report.metric("speedup_model_" + tag + "shard", speedup);
        report.metric("jobs_per_second_" + tag + "shard",
                      jobs_per_second);
        report.metric("wall_seconds_" + tag + "shard", wall);
        router.shutdownShards();
    }

    report.metric("jobs", static_cast<double>(lines.size()));
    report.metric("baseline_busy_seconds", baseline_busy);
    report.metric("baseline_wall_seconds", baseline_seconds);
    report.note("identity", total_mismatches == 0 ? "bit-identical"
                                                  : "MISMATCH");

    for (const ShardProcess &shard : shards) {
        int status = 0;
        ::waitpid(shard.pid, &status, 0);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            std::printf("FAIL: shard %d exited abnormally\n",
                        shard.pid);
            ++failures;
        }
    }
    for (const std::string &path : sockets)
        ::unlink(path.c_str());
    ::rmdir(dir);

    return failures == 0 ? 0 : 1;
}
