/**
 * @file
 * hammer_cli — apply Hamming Reconstruction to a histogram.
 *
 * Usage:
 *   hammer_cli [options] < input.csv > output.csv
 *   hammer_cli --sample <spec> [options] > output.csv
 *
 * Input/output format: CSV lines `bitstring,count-or-probability`
 * (the format core/io.hpp reads and writes), or one JSON object with
 * histograms, per-stage timings and reconstruction statistics
 * (--format json).  The CSV path is the adoption route for users
 * whose measurement data comes from real hardware or another stack:
 * no linking against the library required.
 *
 * With --sample the histogram is produced by the built-in noisy
 * simulator instead of stdin.  Every --sample run goes through
 * api::Pipeline: the workload comes from api::makeWorkload, the
 * backend from api::makeBackend, and the post-processing from an
 * api::MitigationChain — the same composable path the benches,
 * examples and tests use.
 *
 * Serving: --serve runs spec lines through api::ExecutionService,
 * --serve --shards routes them across a net::ShardRouter fleet, and
 * --shard --listen runs one shard worker.  `hammer_cli --help` lists
 * every option.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "api/autoplan.hpp"
#include "common/thread_pool.hpp"
#include "core/io.hpp"
#include "net/router.hpp"
#include "net/shard_worker.hpp"
#include "sim/kernels.hpp"

namespace {

[[noreturn]] void
usage(int exit_code)
{
    std::fprintf(
        exit_code == 0 ? stdout : stderr,
        "usage: hammer_cli [options] < histogram.csv > out.csv\n"
        "       hammer_cli --sample <spec> [options] > out.csv\n"
        "reconstruction:\n"
        "  --radius <d>      neighbourhood bound "
        "(default floor((n-1)/2))\n"
        "  --no-filter       disable the lower-probability filter\n"
        "  --weights <w>     inverse-chs | uniform | "
        "inverse-binomial\n"
        "  --additive        additive score combination\n"
        "  --iterations <k>  apply reconstruction k times\n"
        "  --mitigation <c>  explicit chain, e.g. readout,hammer "
        "(overrides the options above; 'none' disables)\n"
        "  --top <k>         emit only the k most probable outcomes\n"
        "  --stats           reconstruction statistics on stderr\n"
        "  --format <f>      csv (default) | json\n"
        "sampling (instead of reading stdin):\n"
        "  --sample <spec>   bv:<n>[:<key>] | ghz:<n> | "
        "qaoa:[<family>:]<n>:<p> | mirror:<n>[:<depth>]\n"
        "  --machine <name>  noise preset (default machineA)\n"
        "  --backend <b>     trajectory | channel | exact | auto "
        "(default trajectory);\n"
        "                    auto ranks candidate plans with the "
        "fixed cost model and runs the cheapest\n"
        "  --explain-plan    with --sample: print the ranked "
        "candidate plans (predicted cost, top cost groups)\n"
        "                    instead of executing, and exit\n"
        "  --shots <k>       shot budget (default 8192)\n"
        "  --trajectories <t> noise trajectories (default 250)\n"
        "  --threads <N>     worker threads (default: HAMMER_THREADS "
        "env, else all cores); output is bit-identical for every N\n"
        "  --seed <s>        RNG seed in [0, 2^53) (default 1)\n"
        "  --time            sampling wall-clock on stderr\n"
        "serving:\n"
        "  --serve <file|->  run spec lines (JSON object or CSV\n"
        "                    workload[,backend[,shots[,seed[,"
        "mitigation[,machine[,label[,priority]]]]]]],\n"
        "                    chains as readout+hammer in CSV; higher "
        "priority runs first)\n"
        "                    through the batching ExecutionService; "
        "one JSON result line per spec;\n"
        "                    a service_stats JSON line goes to "
        "stderr\n"
        "  --deadline <ms>   per-job completion deadline for --serve: "
        "a job whose predicted completion\n"
        "                    already misses it is shed at admission "
        "(deadline_infeasible), and a job that\n"
        "                    misses it at runtime is reported as timed "
        "out on stderr and skipped\n"
        "                    instead of wedging the stream\n"
        "  --retry-budget <t> with --shards: cap the router's "
        "re-dispatches with a t-token budget\n"
        "                    (refilled by admissions); an exhausted "
        "budget fails jobs typed retry_budget\n"
        "                    instead of retrying unboundedly; no effect "
        "without --shards\n"
        "  --degraded-ok     allow explicitly-flagged degraded "
        "results: an overloaded --serve may\n"
        "                    answer from a cached lower-trajectory "
        "run (\"degraded\": true); with\n"
        "                    --shards, arms per-shard circuit "
        "breakers (threshold 3) so a dead\n"
        "                    fleet fails fast as breaker_open\n"
        "  --canonical       emit results in submit order, canonical "
        "form (label/timings stripped):\n"
        "                    two runs over the same specs diff "
        "byte-exactly\n"
        "  --shards <list>   comma-separated shard addresses "
        "(unix:/path | tcp:host:port):\n"
        "                    route --serve traffic across the fleet "
        "by execution-key hash\n"
        "  --shard           run one shard worker (requires "
        "--listen); SIGTERM drains cleanly\n"
        "  --listen <addr>   shard listen address "
        "(unix:/path | tcp:host:port)\n"
        "  --list <what>     workloads | backends | mitigations\n"
        "diagnostics:\n"
        "  --kernels         print the dispatched simulation kernel "
        "tier (ISA), its vector width, the HAMMER scan tier and the "
        "supported tiers, and exit\n");
    std::exit(exit_code);
}

/** Parse @p flag's value with @p parse; a bad value exits 2. */
template <typename Parse>
auto
parseFlag(Parse parse, const char *text, const char *flag)
{
    try {
        return parse(text, flag);
    } catch (const std::invalid_argument &) {
        std::fprintf(stderr, "hammer_cli: bad value for %s: '%s'\n",
                     flag, text);
        std::exit(2);
    }
}

int
parsePositiveInt(const char *text, const char *flag)
{
    return parseFlag(hammer::api::parsePositiveInt, text, flag);
}

/** Keep only the @p top most probable outcomes (top <= 0 = all). */
hammer::core::Distribution
truncated(const hammer::core::Distribution &dist, int top)
{
    if (top <= 0)
        return dist;
    hammer::core::Distribution kept(dist.numBits());
    int emitted = 0;
    for (const auto &e : dist.sortedByProbability()) {
        if (emitted++ >= top)
            break;
        kept.set(e.outcome, e.probability);
    }
    return kept;
}

void
emit(const hammer::api::Result &result, const std::string &format,
     int top)
{
    if (format == "json") {
        result.writeJson(std::cout, top > 0 ? top : -1);
    } else {
        hammer::core::writeDistributionCsv(
            std::cout, truncated(result.mitigated, top));
    }
}

/**
 * --kernels: report the dispatched kernel tiers.  The "supported
 * tiers" line is machine-parsed by tests/sim/run_tier_suite.sh to
 * decide whether a forced-tier parity leg runs or skips.
 */
int
printKernels()
{
    namespace sim = hammer::sim;
    const sim::KernelTable &active = sim::activeKernels();
    std::printf("active tier: %s\n", sim::tierName(active.tier));
    std::printf("vector width: %d doubles\n", active.lanes);
    std::printf("hammer scan tier: %s\n",
                sim::tierName(hammer::core::hammerScanTier()));
    std::printf("supported tiers:");
    for (sim::KernelTier tier : sim::supportedTiers())
        std::printf(" %s", sim::tierName(tier));
    std::printf("\n");
    return 0;
}

/** --list <what>: print one kind's built-in names or usages. */
int
listNames(const std::string &what)
{
    using namespace hammer::api;
    if (what == "workloads") {
        std::cout << workloadUsage() << '\n';
    } else if (what == "backends") {
        for (const auto &name : backendNames())
            std::cout << name << '\n';
    } else if (what == "mitigations") {
        std::cout << mitigatorUsage() << '\n';
    } else {
        std::fprintf(stderr,
                     "hammer_cli: --list wants workloads | backends "
                     "| mitigations, not '%s'\n", what.c_str());
        return 2;
    }
    return 0;
}

/** One spec line of a --serve input, with its 1-based line number. */
struct NumberedLine
{
    int number = 0;
    std::string text;
};

/** Read --serve spec lines, skipping blank and '#' comment lines. */
std::vector<NumberedLine>
readSpecLines(std::istream &input)
{
    std::vector<NumberedLine> lines;
    std::string line;
    int number = 0;
    while (std::getline(input, line)) {
        ++number;
        const std::size_t first = line.find_first_not_of(" \t\r");
        if (first != std::string::npos && line[first] != '#')
            lines.push_back({number, line});
    }
    return lines;
}

/**
 * --serve: parse spec lines from @p input, run them through one
 * ExecutionService, stream JSON result lines as jobs complete.
 *
 * @param deadline_ms Per-job completion budget (0 = wait forever).
 *        Enforced with ExecutionService::waitFor, so one stuck or
 *        stalled job costs the stream at most one deadline window
 *        and a typed stderr line instead of wedging it.
 */
int
serve(std::istream &input, int threads, int top, int deadline_ms,
      bool canonical, bool degraded_ok)
{
    using namespace hammer::api;

    // Parse everything up front so malformed traffic fails before
    // any cycles are spent executing.
    std::vector<SpecLine> requests;
    for (const NumberedLine &line : readSpecLines(input)) {
        try {
            requests.push_back(parseSpecLine(line.text));
        } catch (const std::exception &error) {
            std::fprintf(stderr, "hammer_cli: --serve line %d: %s\n",
                         line.number, error.what());
            return 2;
        }
    }

    ExecutionServiceOptions options;
    options.workers = threads;
    options.degradedServing = degraded_ok;
    ExecutionService service{options};

    // Failures name a job by its 1-based position among the spec
    // lines, as serveShards() does, so a shed job does not shift the
    // numbers of the jobs after it.
    int failures = 0;
    std::vector<ExecutionService::JobHandle> handles;
    std::vector<std::size_t> jobNumbers;
    handles.reserve(requests.size());
    jobNumbers.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const SpecLine &request = requests[i];
        // A per-line "deadline_ms" wins; otherwise --deadline is
        // the admission deadline for every job.
        const double deadline = request.deadlineMs > 0.0
                                    ? request.deadlineMs
                                    : deadline_ms;
        try {
            handles.push_back(service.submit(
                request.spec, request.priority, deadline));
            jobNumbers.push_back(i + 1);
        } catch (const DeadlineInfeasibleError &error) {
            // A shed is a per-job outcome, not a fatal one: the
            // stream keeps serving the feasible jobs.
            std::fprintf(stderr, "hammer_cli: --serve job %zu: %s\n",
                         i + 1, error.what());
            ++failures;
        } catch (const std::exception &error) {
            std::fprintf(stderr, "hammer_cli: --serve: %s\n",
                         error.what());
            return 2;
        }
    }
    if (canonical) {
        // Canonical mode trades streaming latency for diffability:
        // submit-order emission with label/timings stripped, so the
        // byte stream depends only on the specs — comparable 1:1
        // against a sharded run's --canonical output.
        for (std::size_t i = 0; i < handles.size(); ++i) {
            try {
                const Result result = service.wait(handles[i]);
                std::cout << canonicalResultJson(result.json(-1))
                          << '\n';
            } catch (const std::exception &error) {
                std::fprintf(stderr, "hammer_cli: --serve job %zu: %s\n",
                             jobNumbers[i], error.what());
                ++failures;
            }
        }
        std::cout.flush();
        std::fprintf(stderr, "%s\n",
                     serviceStatsJson(service.stats(),
                                      service.workers())
                         .c_str());
        return failures == 0 ? 0 : 1;
    }

    // Stream each result as soon as its job finishes (order follows
    // completion, not submission — this is a server, not a batch).
    std::vector<bool> emitted(handles.size(), false);
    std::size_t remaining = handles.size();
    while (remaining > 0) {
        bool progressed = false;
        for (std::size_t i = 0; i < handles.size(); ++i) {
            if (emitted[i] || !service.poll(handles[i]))
                continue;
            emitted[i] = true;
            --remaining;
            progressed = true;
            try {
                const Result result = service.wait(handles[i]);
                result.writeJson(std::cout, top > 0 ? top : -1);
                std::cout.flush();
            } catch (const std::exception &error) {
                std::fprintf(stderr, "hammer_cli: --serve job %zu: %s\n",
                             jobNumbers[i], error.what());
                ++failures;
            }
        }
        if (!progressed && remaining > 0) {
            if (deadline_ms > 0) {
                // Nothing became ready: spend one deadline window on
                // the oldest outstanding job (waitFor helps drain
                // the queue, so this is also the loop's worker
                // role).  A miss is a typed failure, not a wedge.
                std::size_t oldest = 0;
                while (emitted[oldest])
                    ++oldest;
                try {
                    const auto result = service.waitFor(
                        handles[oldest],
                        std::chrono::milliseconds(deadline_ms));
                    if (result) {
                        result->writeJson(std::cout,
                                          top > 0 ? top : -1);
                        std::cout.flush();
                    } else {
                        std::fprintf(
                            stderr,
                            "hammer_cli: --serve job %zu: timed "
                            "out after %d ms\n",
                            jobNumbers[oldest], deadline_ms);
                        ++failures;
                    }
                } catch (const std::exception &error) {
                    std::fprintf(stderr,
                                 "hammer_cli: --serve job %zu: %s\n",
                                 jobNumbers[oldest], error.what());
                    ++failures;
                }
                emitted[oldest] = true;
                --remaining;
            } else if (!service.helpDrain()) {
                // Act as the pool's extra worker before sleeping:
                // with N requested threads, N-1 are dedicated
                // workers and this streaming loop is the Nth.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            }
        }
    }

    const ServiceStats stats = service.stats();
    std::fprintf(
        stderr,
        "hammer_cli: served %llu job(s) on %d worker(s): "
        "%llu executed, %llu coalesced, %llu cache hit(s) "
        "(hit rate %.2f), %llu exec result(s) shared, "
        "peak queue depth %llu\n",
        static_cast<unsigned long long>(stats.submitted),
        service.workers(),
        static_cast<unsigned long long>(stats.executeRuns),
        static_cast<unsigned long long>(stats.coalesced),
        static_cast<unsigned long long>(stats.resultCache.hits),
        stats.resultCache.hitRate(),
        static_cast<unsigned long long>(stats.executeShared),
        static_cast<unsigned long long>(stats.queuePeakDepth));
    std::fprintf(stderr, "%s\n",
                 serviceStatsJson(stats, service.workers()).c_str());
    return failures == 0 ? 0 : 1;
}

/**
 * --serve --shards: route the spec lines across a shard fleet and
 * merge results in submit order.  Lines travel verbatim, so a
 * shard's parse is byte-identical to the local serve() path's.
 * @p retry_budget > 0 arms the router's retry budget with that many
 * tokens: router re-dispatches are the only retries a CLI run makes
 * (a service retries only after an injected worker death).
 */
int
serveShards(std::istream &input,
            const std::vector<std::string> &addresses, bool canonical,
            int retry_budget, bool degraded_ok)
{
    using namespace hammer;

    const std::vector<NumberedLine> lines = readSpecLines(input);

    net::ShardRouterOptions options;
    options.addresses = addresses;
    options.heartbeatIntervalMs = 500;
    if (retry_budget > 0) {
        options.retryBudget = true;
        options.retryBudgetOptions.initialTokens = retry_budget;
        options.retryBudgetOptions.maxTokens = std::max<double>(
            retry_budget, options.retryBudgetOptions.maxTokens);
    }
    if (degraded_ok)
        // Per-shard circuit breakers: a flapping or dead shard is
        // skipped after 3 consecutive failures, and a fleet with
        // every breaker open fails fast (breaker_open) instead of
        // burning the full attempt budget per job.
        options.breakerFailureThreshold = 3;
    net::ShardRouter router{options};

    std::vector<std::uint64_t> ids;
    ids.reserve(lines.size());
    for (const NumberedLine &line : lines) {
        try {
            ids.push_back(router.submit(line.text));
        } catch (const std::exception &error) {
            std::fprintf(stderr,
                         "hammer_cli: --serve line %d: %s\n",
                         line.number, error.what());
            return 2;
        }
    }

    // Failures name a job by its 1-based position among the spec
    // lines, as serve() does.
    int failures = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        try {
            const std::string json = router.wait(ids[i]);
            if (canonical)
                std::cout << api::canonicalResultJson(json) << '\n';
            else
                std::cout << json; // writeJson lines end with '\n'.
        } catch (const std::exception &error) {
            std::fprintf(stderr, "hammer_cli: --serve job %zu: %s\n",
                         i + 1, error.what());
            ++failures;
        }
    }
    std::cout.flush();

    // One service_stats line per shard (same scrape format the local
    // path emits), then the router's own routing summary.
    for (std::size_t i = 0; i < router.shardCount(); ++i) {
        try {
            std::fprintf(stderr, "%s\n",
                         router.fetchStats(i).c_str());
        } catch (const std::exception &error) {
            std::fprintf(stderr,
                         "hammer_cli: shard %zu stats: %s\n", i,
                         error.what());
        }
    }
    const net::RouterStats stats = router.stats();
    std::fprintf(
        stderr,
        "hammer_cli: routed %llu job(s) across %zu shard(s): "
        "%llu dispatched, %llu retried, %llu rerouted, "
        "%llu shard death(s)\n",
        static_cast<unsigned long long>(stats.submitted),
        router.shardCount(),
        static_cast<unsigned long long>(stats.dispatched),
        static_cast<unsigned long long>(stats.retries),
        static_cast<unsigned long long>(stats.reroutes),
        static_cast<unsigned long long>(stats.shardDeaths));
    return failures == 0 ? 0 : 1;
}

volatile std::sig_atomic_t g_shard_signal = 0;

void
shardSignalHandler(int)
{
    g_shard_signal = 1;
}

/**
 * --shard --listen: one shard worker process.  run() executes on a
 * helper thread so the main thread can watch for SIGTERM/SIGINT with
 * nothing but a sig_atomic_t flag — stop() takes locks, which a
 * signal handler must never do.
 */
int
runShard(const std::string &listen, int threads, bool degraded_ok)
{
    using namespace hammer;

    net::ShardWorkerOptions options;
    options.service.workers = threads;
    options.service.degradedServing = degraded_ok;
    options.emitStats = true;
    try {
        net::ShardWorker worker(listen, options);
        std::fprintf(stderr, "hammer_cli: shard listening on %s\n",
                     worker.address().c_str());
        std::signal(SIGTERM, shardSignalHandler);
        std::signal(SIGINT, shardSignalHandler);

        std::atomic<bool> done{false};
        std::thread runner([&] {
            worker.run();
            done.store(true);
        });
        while (!done.load() && g_shard_signal == 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        worker.stop();
        runner.join();
    } catch (const std::exception &error) {
        std::fprintf(stderr, "hammer_cli: --shard: %s\n",
                     error.what());
        return 2;
    }
    return 0;
}

/** Split a comma-separated address list (empty items rejected). */
std::vector<std::string>
splitAddresses(const std::string &csv)
{
    std::vector<std::string> addresses;
    std::size_t start = 0;
    while (start <= csv.size()) {
        std::size_t comma = csv.find(',', start);
        if (comma == std::string::npos)
            comma = csv.size();
        const std::string item = csv.substr(start, comma - start);
        if (item.empty()) {
            std::fprintf(stderr,
                         "hammer_cli: --shards: empty address in "
                         "'%s'\n", csv.c_str());
            std::exit(2);
        }
        addresses.push_back(item);
        start = comma + 1;
    }
    return addresses;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hammer;

    core::HammerConfig config;
    bool print_stats = false;
    int iterations = 1;
    int top = -1;
    std::string format = "csv";
    std::string mitigation_spec;

    std::string sample_spec;
    std::string backend = "trajectory";
    bool explain_plan = false;
    api::BackendSpec backend_spec;
    backend_spec.machine = "machineA";
    bool print_time = false;

    std::string serve_path;
    bool serve_mode = false;
    int serve_deadline_ms = 0;
    int retry_budget = 0;
    bool degraded_ok = false;
    bool canonical = false;
    std::string shards_csv;
    bool shard_mode = false;
    std::string listen_address;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "hammer_cli: %s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (arg == "--radius") {
            config.maxDistance =
                parsePositiveInt(next_value("--radius"), "--radius");
        } else if (arg == "--no-filter") {
            config.filterLowerProbability = false;
        } else if (arg == "--weights") {
            const std::string scheme = next_value("--weights");
            if (scheme == "inverse-chs") {
                config.weightScheme = core::WeightScheme::InverseChs;
            } else if (scheme == "uniform") {
                config.weightScheme = core::WeightScheme::Uniform;
            } else if (scheme == "inverse-binomial") {
                config.weightScheme =
                    core::WeightScheme::InverseBinomial;
            } else {
                std::fprintf(stderr,
                             "hammer_cli: unknown weight scheme "
                             "'%s'\n", scheme.c_str());
                return 2;
            }
        } else if (arg == "--additive") {
            config.scoreCombine = core::ScoreCombine::Additive;
        } else if (arg == "--iterations") {
            iterations = parsePositiveInt(
                next_value("--iterations"), "--iterations");
        } else if (arg == "--mitigation") {
            mitigation_spec = next_value("--mitigation");
        } else if (arg == "--top") {
            top = parsePositiveInt(next_value("--top"), "--top");
        } else if (arg == "--stats") {
            print_stats = true;
        } else if (arg == "--format") {
            format = next_value("--format");
            if (format != "csv" && format != "json") {
                std::fprintf(stderr,
                             "hammer_cli: unknown format '%s' "
                             "(csv | json)\n", format.c_str());
                return 2;
            }
        } else if (arg == "--sample") {
            sample_spec = next_value("--sample");
        } else if (arg == "--explain-plan") {
            explain_plan = true;
        } else if (arg == "--serve") {
            serve_mode = true;
            serve_path = next_value("--serve");
        } else if (arg == "--deadline") {
            serve_deadline_ms = parsePositiveInt(
                next_value("--deadline"), "--deadline");
        } else if (arg == "--retry-budget") {
            retry_budget = parsePositiveInt(
                next_value("--retry-budget"), "--retry-budget");
        } else if (arg == "--degraded-ok") {
            degraded_ok = true;
        } else if (arg == "--canonical") {
            canonical = true;
        } else if (arg == "--shards") {
            shards_csv = next_value("--shards");
        } else if (arg == "--shard") {
            shard_mode = true;
        } else if (arg == "--listen") {
            listen_address = next_value("--listen");
        } else if (arg == "--kernels") {
            return printKernels();
        } else if (arg == "--list") {
            return listNames(next_value("--list"));
        } else if (arg == "--machine") {
            backend_spec.machine = next_value("--machine");
        } else if (arg == "--backend") {
            backend = next_value("--backend");
        } else if (arg == "--shots") {
            backend_spec.shots =
                parsePositiveInt(next_value("--shots"), "--shots");
        } else if (arg == "--trajectories") {
            backend_spec.trajectories = parsePositiveInt(
                next_value("--trajectories"), "--trajectories");
        } else if (arg == "--threads") {
            backend_spec.threads = parsePositiveInt(
                next_value("--threads"), "--threads");
        } else if (arg == "--seed") {
            backend_spec.seed = parseFlag(hammer::api::parseSeed,
                                          next_value("--seed"),
                                          "--seed");
        } else if (arg == "--time") {
            print_time = true;
        } else {
            std::fprintf(stderr, "hammer_cli: unknown option '%s'\n",
                         arg.c_str());
            usage(2);
        }
    }

    if (shard_mode) {
        if (listen_address.empty()) {
            std::fprintf(stderr,
                         "hammer_cli: --shard needs --listen "
                         "<addr>\n");
            return 2;
        }
        return runShard(listen_address, backend_spec.threads,
                        degraded_ok);
    }

    if (serve_mode) {
        std::ifstream file;
        std::istream *input = &std::cin;
        if (serve_path != "-") {
            file.open(serve_path);
            if (!file) {
                std::fprintf(
                    stderr,
                    "hammer_cli: --serve: cannot open '%s'\n",
                    serve_path.c_str());
                return 2;
            }
            input = &file;
        }
        if (!shards_csv.empty())
            return serveShards(*input, splitAddresses(shards_csv),
                               canonical, retry_budget, degraded_ok);
        return serve(*input, backend_spec.threads, top,
                     serve_deadline_ms, canonical, degraded_ok);
    }

    try {
        // The post-processing chain: an explicit --mitigation spec
        // wins; otherwise one HAMMER stage with the reconstruction
        // flags above.
        std::shared_ptr<const api::Mitigator> chain;
        if (!mitigation_spec.empty()) {
            chain = std::make_shared<api::MitigationChain>(
                api::mitigationChainFromSpec(mitigation_spec));
        } else {
            chain = std::make_shared<api::HammerMitigator>(
                config, iterations);
        }

        api::Result result;
        if (explain_plan) {
            if (sample_spec.empty()) {
                std::fprintf(stderr,
                             "hammer_cli: --explain-plan needs "
                             "--sample <spec>\n");
                return 2;
            }
            api::ExperimentSpec spec;
            spec.workload = sample_spec;
            spec.backend = backend;
            spec.backendSpec = backend_spec;
            std::fputs(api::explainPlan(spec).c_str(), stdout);
            return 0;
        }
        if (!sample_spec.empty()) {
            // Self-contained demo path: one pipeline run.
            api::ExperimentSpec spec;
            spec.workload = sample_spec;
            spec.backend = backend;
            spec.backendSpec = backend_spec;
            spec.mitigator = chain;
            result = api::Pipeline().run(spec);

            if (result.workload && result.family == "bv") {
                std::fprintf(
                    stderr, "hammer_cli: BV-%d key %s\n",
                    result.measuredQubits,
                    common::toBitstring(result.workload->key,
                                        result.measuredQubits)
                        .c_str());
            }
            if (print_time) {
                // "up to": the engine caps workers at its work-item
                // count, which can be below the request.
                const int requested = backend_spec.threads > 0
                    ? backend_spec.threads
                    : common::ThreadPool::defaultThreadCount();
                std::fprintf(stderr,
                             "hammer_cli: sampled %d shots on up to "
                             "%d thread(s) in %.3f s\n",
                             result.shots, requested,
                             result.stageSeconds("sample"));
            }
        } else {
            // Adoption path: post-process an external histogram.
            const core::Distribution measured =
                core::readDistributionCsv(std::cin);
            result.label = "stdin";
            result.workloadSpec = "-";
            result.family = "external";
            result.backendName = "external";
            result.machine = backend_spec.machine;
            result.mitigationName = chain->name();
            result.measuredQubits = measured.numBits();
            result.raw = measured;
            // External histograms carry no success predicate: keep
            // the metric fields NaN (null in JSON) rather than a
            // misleading 0.
            const double nan =
                std::numeric_limits<double>::quiet_NaN();
            result.pstRaw = result.pstMitigated = nan;
            result.istRaw = result.istMitigated = nan;
            result.ehdRaw = result.ehdMitigated = nan;

            api::MitigationContext ctx;
            ctx.model = noise::machinePreset(backend_spec.machine);
            ctx.stats = &result.hammerStats;
            const auto start = std::chrono::steady_clock::now();
            result.mitigated = chain->apply(measured, ctx);
            const std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - start;
            result.timings.push_back({"mitigate", elapsed.count()});
        }

        if (print_stats) {
            std::fprintf(stderr,
                         "unique outcomes : %zu\n"
                         "max distance    : %d\n"
                         "pair operations : %llu (per pass, %s path)\n",
                         result.hammerStats.uniqueOutcomes,
                         result.hammerStats.maxDistance,
                         static_cast<unsigned long long>(
                             result.hammerStats.pairOperations),
                         core::hammerPathName(result.hammerStats.path));
        }

        emit(result, format, top);
    } catch (const std::invalid_argument &error) {
        std::fprintf(stderr, "hammer_cli: %s\n", error.what());
        return 2;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "hammer_cli: %s\n", error.what());
        return 1;
    }
    return 0;
}
