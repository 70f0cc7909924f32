#include "metrics.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "stats.hpp"

namespace perfbench {

namespace {

std::vector<Metric>
fill(const std::vector<MetricDef> &catalogue,
     const std::map<std::string, double> &values)
{
    std::vector<Metric> out;
    for (const MetricDef &def : catalogue) {
        const auto found = values.find(def.name);
        if (found == values.end())
            throw std::logic_error(std::string("metric ") + def.name +
                                   " was not computed");
        out.push_back({def.name, def.unit, found->second});
    }
    return out;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

const std::vector<MetricDef> &
endToEndCatalogue()
{
    static const std::vector<MetricDef> all = {
        {"jobs_per_s", "1/s"},       {"latency_p50_s", "s"},
        {"latency_p90_s", "s"},      {"success_ratio", "ratio"},
        {"setup_s", "s"},            {"peak_heap_mb", "MB"},
        {"pst_gain_gmean", "ratio"},
    };
    return all;
}

const std::vector<MetricDef> &
perLayerCatalogue()
{
    static const std::vector<MetricDef> all = {
        {"api.parse_s.p50", "s"},
        {"api.submit_s.p50", "s"},
        {"api.queue_wait_s.p50", "s"},
        {"api.queue_wait_s.p90", "s"},
        {"api.serialize_s.p50", "s"},
        {"api.serialize_bytes.p50", "B"},
        {"api.result_cache.hit_ratio", "ratio"},
        {"api.exec.shared_ratio", "ratio"},
        {"api.exec.runs_per_key", "ratio"},
        {"api.failed.count", "count"},
        {"plan.estimate_s.p50", "s"},
        {"plan.cost_ratio", "ratio"},
        {"circuits.build_s.p50", "s"},
        {"noise.sample_s.p50", "s"},
        {"noise.sample_s.p90", "s"},
        {"noise.sample.share", "ratio"},
        {"mitigation.readout_s.p50", "s"},
        {"mitigation.readout_s.p90", "s"},
        {"mitigation.readout.share", "ratio"},
        {"core.hammer_s.p50", "s"},
        {"core.hammer_s.p90", "s"},
        {"core.hammer.share", "ratio"},
        {"core.hammer.pair_ops", "count"},
        {"core.hammer.ns_per_pair", "ns"},
        {"core.hammer.unique_outcomes.p50", "count"},
        {"metrics.score_s.p50", "s"},
        {"net.round_trip_s.p50", "s"},
        {"net.round_trip_s.p90", "s"},
        {"net.router_busy_s.per_job", "s"},
        {"net.dispatch_per_job", "ratio"},
        {"common.parallelism", "ratio"},
        {"trace.overhead", "ratio"},
        {"trace.coverage", "ratio"},
    };
    return all;
}

std::vector<Metric>
endToEndMetrics(const PhaseResult &phase)
{
    std::vector<double> latency;
    std::vector<double> gains;
    for (const RequestRecord &r : phase.records) {
        if (!r.ok)
            continue;
        latency.push_back(r.end - r.start);
        gains.push_back(r.pstGain);
    }
    const double attempted = static_cast<double>(phase.records.size());
    std::map<std::string, double> v;
    v["jobs_per_s"] = phase.jobsPerSecond();
    v["latency_p50_s"] = median(latency);
    v["latency_p90_s"] = tailQuantile(latency, 0.9);
    v["success_ratio"] = ratio(attempted - static_cast<double>(phase.failed()),
                               attempted);
    v["setup_s"] = median(phase.setupSeconds);
    v["peak_heap_mb"] = phase.peakHeapMb;
    v["pst_gain_gmean"] = geometricMean(gains);
    return fill(endToEndCatalogue(), v);
}

std::vector<Metric>
perLayerMetrics(const PhaseResult &traced, const PhaseResult &untraced,
                std::vector<std::string> &thinTails)
{
    const auto spanSeconds = [&](const char *name) {
        std::vector<double> out;
        for (const RequestRecord &r : traced.records)
            for (const Span &s : r.spans)
                if (s.name == name)
                    out.push_back(s.end - s.start);
        return out;
    };
    const auto p90 = [&](const char *metric, const std::vector<double> &xs) {
        if (!xs.empty() && !tailSupported(xs.size(), 0.9))
            thinTails.push_back(metric);
        return quantile(xs, 0.9);
    };

    std::vector<double> queueWait, serialize, bytes, build, sample, readout,
        hammer, unique, score, roundTrip, coverage;
    double stageTotal = 0.0, sampleTotal = 0.0, readoutTotal = 0.0,
           hammerTotal = 0.0, pairOps = 0.0;
    for (const RequestRecord &r : traced.records) {
        if (!r.ok)
            continue;
        const ExecutedStages &s = r.stages;
        stageTotal += s.total();
        (traced.fleet ? roundTrip : queueWait).push_back(r.remainder);
        serialize.push_back(r.serializeSeconds);
        bytes.push_back(static_cast<double>(r.bytes));

        double clientBuild = 0.0, covered = s.total();
        bool built = false;
        for (const Span &span : r.spans) {
            if (span.name == "circuits.build") {
                clientBuild += span.end - span.start;
                built = true;
            }
            if (span.name != "net.wait")
                covered += span.end - span.start;
        }
        if (s.ranPipeline || built)
            build.push_back(s.workload + clientBuild);
        if (s.ranPipeline)
            score.push_back(s.score);
        if (s.ranSample) {
            sample.push_back(s.sample);
            sampleTotal += s.sample;
        }
        if (s.ranReadout) {
            readout.push_back(s.readout);
            readoutTotal += s.readout;
        }
        if (s.ranHammer) {
            hammer.push_back(s.hammer);
            hammerTotal += s.hammer;
            pairOps += static_cast<double>(s.pairOps);
            unique.push_back(static_cast<double>(s.uniqueOutcomes));
        }
        coverage.push_back(ratio(covered, r.end - r.start));
    }

    const ServiceDeltas &d = traced.deltas;
    std::map<std::string, double> v;
    v["api.parse_s.p50"] = median(spanSeconds("api.parse"));
    v["api.submit_s.p50"] = median(spanSeconds("api.submit"));
    v["api.queue_wait_s.p50"] = median(queueWait);
    v["api.queue_wait_s.p90"] = p90("api.queue_wait_s.p90", queueWait);
    v["api.serialize_s.p50"] = median(serialize);
    v["api.serialize_bytes.p50"] = median(bytes);
    v["api.result_cache.hit_ratio"] =
        ratio(d.resultHits, d.resultHits + d.resultMisses);
    v["api.exec.shared_ratio"] =
        ratio(d.executeShared, d.executeRuns + d.executeShared);
    v["api.exec.runs_per_key"] = ratio(d.executeRuns, d.distinctExecKeys);
    v["api.failed.count"] = static_cast<double>(traced.failed());
    v["plan.estimate_s.p50"] = median(spanSeconds("plan.estimate"));
    v["plan.cost_ratio"] = ratio(d.measuredCost, d.predictedCost);
    v["circuits.build_s.p50"] = median(build);
    v["noise.sample_s.p50"] = median(sample);
    v["noise.sample_s.p90"] = p90("noise.sample_s.p90", sample);
    v["noise.sample.share"] = ratio(sampleTotal, stageTotal);
    v["mitigation.readout_s.p50"] = median(readout);
    v["mitigation.readout_s.p90"] = p90("mitigation.readout_s.p90", readout);
    v["mitigation.readout.share"] = ratio(readoutTotal, stageTotal);
    v["core.hammer_s.p50"] = median(hammer);
    v["core.hammer_s.p90"] = p90("core.hammer_s.p90", hammer);
    v["core.hammer.share"] = ratio(hammerTotal, stageTotal);
    v["core.hammer.pair_ops"] = pairOps;
    v["core.hammer.ns_per_pair"] = ratio(hammerTotal * 1e9, pairOps);
    v["core.hammer.unique_outcomes.p50"] = median(unique);
    v["metrics.score_s.p50"] = median(score);
    v["net.round_trip_s.p50"] = median(roundTrip);
    v["net.round_trip_s.p90"] = p90("net.round_trip_s.p90", roundTrip);
    v["net.router_busy_s.per_job"] =
        ratio(d.routerBusySeconds, d.routerSubmitted);
    v["net.dispatch_per_job"] = ratio(d.routerDispatched, d.routerSubmitted);
    v["common.parallelism"] = ratio(traced.cpuSeconds, traced.wall);
    // Requests done by the time the phase that finished first had
    // finished, counted from each phase's start: both counts include
    // the same start-up transient (fleet-repeat's first misses), and
    // neither runs past a phase that stopped early at its request
    // budget.
    const auto doneBy = [](const PhaseResult &p, double seconds) {
        return static_cast<double>(std::count_if(
            p.records.begin(), p.records.end(),
            [&](const RequestRecord &r) { return r.ok && r.end <= seconds; }));
    };
    const auto lastEnd = [](const PhaseResult &p) {
        double end = 0.0;
        for (const RequestRecord &r : p.records)
            end = std::max(end, r.end);
        return end;
    };
    const double window = std::min(lastEnd(untraced), lastEnd(traced));
    v["trace.overhead"] =
        ratio(doneBy(traced, window), doneBy(untraced, window)) - 1.0;
    v["trace.coverage"] = median(coverage);
    return fill(perLayerCatalogue(), v);
}

} // namespace perfbench
