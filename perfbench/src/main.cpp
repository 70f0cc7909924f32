/**
 * perfbench — the request-path benchmark.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --out-dir <dir>
 *   perfbench --list-metrics | --list-workloads
 *
 * --trace 0 runs one untraced phase and reports the end-to-end
 * metrics.  --trace 1 runs an untraced phase for a third of the
 * seconds, then a traced phase of the same workload and seed for the
 * rest, reports the per-layer metrics and writes the spans to
 * <out-dir>/trace-<workload>-<seed>.json.
 *
 * The last stdout line is the result object; the line before it holds
 * the host notes.  Exit status: 0 when every output checked correct,
 * 1 when some did not, 2 on a usage error, 3 when the run timed too
 * few requests to report its latency tail, 4 on any other failure.
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "api/json.hpp"
#include "clients.hpp"
#include "host.hpp"
#include "metrics.hpp"
#include "requests.hpp"
#include "sim/kernels.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;
namespace sim = hammer::sim;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string outDir;
    bool listMetrics = false;
    bool listWorkloads = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            a.workload = value();
            haveWorkload = true;
        } else if (arg == "--seed") {
            a.seed = std::stoull(value());
            haveSeed = true;
        } else if (arg == "--seconds") {
            a.seconds = std::stod(value());
            haveSeconds = true;
        } else if (arg == "--trace") {
            const std::string t = value();
            if (t != "0" && t != "1")
                throw std::invalid_argument("--trace takes 0 or 1");
            a.trace = t == "1";
        } else if (arg == "--out-dir") {
            a.outDir = value();
        } else if (arg == "--list-metrics") {
            a.listMetrics = true;
        } else if (arg == "--list-workloads") {
            a.listWorkloads = true;
        } else {
            throw std::invalid_argument("unknown argument " + arg);
        }
    }
    if (a.listMetrics || a.listWorkloads)
        return a;
    if (!haveWorkload || !haveSeed || !haveSeconds || a.outDir.empty())
        throw std::invalid_argument(
            "--workload, --seed, --seconds and --out-dir are required");
    if (!(a.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    workloadByName(a.workload); // validates the name
    return a;
}

void
writeCatalogue(api::JsonWriter &json, const std::vector<MetricDef> &defs)
{
    json.beginArray();
    for (const MetricDef &d : defs) {
        json.beginObject();
        json.key("name").value(d.name);
        json.key("unit").value(d.unit);
        json.endObject();
    }
    json.endArray();
}

void
writeStrings(api::JsonWriter &json, const std::vector<std::string> &items)
{
    json.beginArray();
    for (const std::string &s : items)
        json.value(s);
    json.endArray();
}

int
run(const Args &a)
{
    const WorkloadConfig &cfg = workloadByName(a.workload);
    std::filesystem::create_directories(a.outDir);
    const std::string loadAtStart = loadAverage();

    PhaseOptions options;
    options.config = &cfg;
    options.seed = a.seed;
    options.outDir = a.outDir;

    std::vector<Metric> metrics;
    std::vector<std::string> thinTails;
    std::vector<std::string> failures;
    PhaseResult measured;
    std::size_t attempted = 0, failed = 0;
    if (!a.trace) {
        options.seconds = a.seconds;
        options.deepChecks = true;
        measured = runPhase(options);
        metrics = endToEndMetrics(measured);
    } else {
        options.seconds = a.seconds / 3.0;
        const PhaseResult untraced = runPhase(options);
        options.seconds = a.seconds - options.seconds;
        options.traced = true;
        options.deepChecks = true;
        measured = runPhase(options);
        metrics = perLayerMetrics(measured, untraced, thinTails);
        attempted += untraced.records.size();
        failed += untraced.failed();
        failures = untraced.failures;
    }
    attempted += measured.records.size();
    failed += measured.failed();
    failures.insert(failures.end(), measured.failures.begin(),
                    measured.failures.end());

    const std::string traceFile = a.outDir + "/trace-" + a.workload + "-" +
                                  std::to_string(a.seed) + ".json";
    api::JsonWriter notes;
    notes.beginObject();
    notes.key("workload").value(a.workload);
    notes.key("seed").value(a.seed);
    notes.key("traced").value(a.trace);
    notes.key("nproc").value(onlineCpus());
    notes.key("kernel_tier")
        .value(sim::tierName(sim::activeKernels().tier));
    notes.key("workers").value(kWorkers);
    notes.key("inner_threads").value(kInnerThreads);
    notes.key("shards").value(measured.fleet ? 2 : 0);
    notes.key("window").value(cfg.window);
    notes.key("shard_requests");
    notes.beginArray();
    for (const double n : measured.deltas.shardSubmitted)
        notes.value(n);
    notes.endArray();
    notes.key("parallelism")
        .value(measured.wall > 0.0 ? measured.cpuSeconds / measured.wall
                                   : 0.0);
    notes.key("steal_ticks").value(measured.stealTicks);
    notes.key("peak_rss_mb").value(measured.peakRssMb);
    notes.key("loadavg_start").value(loadAtStart);
    notes.key("requests")
        .value(static_cast<std::uint64_t>(measured.records.size()));
    notes.key("latency_samples")
        .value(static_cast<std::uint64_t>(measured.records.size() -
                                          measured.failed()));
    notes.key("wall_s").value(measured.wall);
    notes.key("setup_runs_s");
    notes.beginArray();
    for (const double s : measured.setupSeconds)
        notes.value(s);
    notes.endArray();
    notes.key("deep_checks").value(measured.deepChecks);
    notes.key("deep_check_failures").value(measured.deepFailures);
    notes.key("thin_tails");
    writeStrings(notes, thinTails);
    notes.key("failures");
    writeStrings(notes, failures);
    if (a.trace)
        notes.key("trace_file").value(traceFile);
    notes.endObject();

    if (a.trace) {
        std::ofstream out(traceFile);
        out << traceJson(a.workload, a.seed, measured, notes.str()) << "\n";
    }

    api::JsonWriter result;
    result.beginObject();
    result.key("correct").value(failed == 0);
    result.key("attempted").value(static_cast<std::uint64_t>(attempted));
    result.key("failed").value(static_cast<std::uint64_t>(failed));
    result.key("metrics");
    result.beginObject();
    for (const Metric &m : metrics) {
        result.key(m.name);
        result.beginObject();
        result.key("value").value(m.value);
        result.key("unit").value(m.unit);
        result.endObject();
    }
    result.endObject();
    result.endObject();

    std::cout << "{\"notes\":" << notes.str() << "}\n"
              << result.str() << std::endl;
    return failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    try {
        args = parseArgs(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
    if (args.listMetrics) {
        api::JsonWriter json;
        json.beginObject();
        json.key("end_to_end");
        writeCatalogue(json, endToEndCatalogue());
        json.key("per_layer");
        writeCatalogue(json, perLayerCatalogue());
        json.endObject();
        std::cout << json.str() << std::endl;
        return 0;
    }
    if (args.listWorkloads) {
        for (const WorkloadConfig &w : workloads())
            std::cout << w.name << "\n";
        return 0;
    }
    try {
        return run(args);
    } catch (const TailTooThin &e) {
        std::cerr << "perfbench: " << args.workload
                  << ": latency tail not supported: " << e.what() << "\n";
        return 3;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << args.workload << ": " << e.what()
                  << "\n";
        return 4;
    }
}
