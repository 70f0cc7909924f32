#include "api/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <ostream>
#include <string_view>

#include "api/json.hpp"
#include "common/logging.hpp"
#include "core/ehd.hpp"
#include "metrics/metrics.hpp"

namespace hammer::api {

using common::require;
using core::Distribution;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count();
}

void
writeHistogramJson(JsonWriter &json, const Distribution &dist,
                   int max_outcomes)
{
    json.beginArray();
    int emitted = 0;
    for (const auto &entry : dist.sortedByProbability()) {
        if (max_outcomes >= 0 && emitted++ >= max_outcomes)
            break;
        char bits[64];
        json.beginObject();
        json.key("outcome").value(std::string_view(
            bits,
            common::writeBitstring(entry.outcome, dist.numBits(), bits)));
        json.key("probability").value(entry.probability);
        json.endObject();
    }
    json.endArray();
}

} // namespace

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

double
Result::totalSeconds() const
{
    double total = 0.0;
    for (const auto &timing : timings) {
        // Sub-stage rows ("mitigate:hammer") detail time already
        // counted by their parent stage; skip them to keep the total
        // a genuine end-to-end wall-clock.
        if (timing.stage.find(':') == std::string::npos)
            total += timing.seconds;
    }
    return total;
}

double
Result::stageSeconds(const std::string &stage) const
{
    for (const auto &timing : timings)
        if (timing.stage == stage)
            return timing.seconds;
    return 0.0;
}

void
Result::writeJson(std::ostream &out, int max_outcomes) const
{
    out << json(max_outcomes);
}

std::string
Result::json(int max_outcomes) const
{
    // Size the buffer once: ~1 KB of fields plus at most width + 56
    // bytes per emitted histogram row.
    const auto rowBytes = [&](const Distribution &dist) {
        const std::size_t rows =
            max_outcomes < 0
                ? dist.support()
                : std::min(dist.support(),
                           static_cast<std::size_t>(max_outcomes));
        return rows * (static_cast<std::size_t>(dist.numBits()) + 56);
    };
    JsonWriter json;
    json.reserve(1024 + rowBytes(raw) + rowBytes(mitigated));
    json.beginObject();

    json.key("label").value(label);
    json.key("workload").value(workloadSpec);
    json.key("family").value(family);
    json.key("backend").value(backendName);
    json.key("machine").value(machine);
    json.key("mitigation").value(mitigationName);
    json.key("measured_qubits").value(measuredQubits);
    json.key("shots").value(shots);
    json.key("seed").value(seed);

    // Emitted only when set: non-degraded results keep their exact
    // historical byte layout (golden files, bit-identity replays).
    if (degraded)
        json.key("degraded").value(true);

    if (workload && !workload->correctOutcomes.empty()) {
        json.key("correct_outcomes").beginArray();
        for (const auto outcome : workload->correctOutcomes)
            json.value(common::toBitstring(outcome, measuredQubits));
        json.endArray();
    }

    json.key("timings").beginObject();
    for (const auto &timing : timings)
        json.key(timing.stage).value(timing.seconds);
    json.key("total").value(totalSeconds());
    json.endObject();

    json.key("hammer_stats").beginObject();
    json.key("unique_outcomes")
        .value(static_cast<std::uint64_t>(hammerStats.uniqueOutcomes));
    json.key("max_distance").value(hammerStats.maxDistance);
    json.key("pair_operations")
        .value(static_cast<std::uint64_t>(hammerStats.pairOperations));
    // Emitted only on the transform path, like "degraded": scan-path
    // results keep their exact historical bytes.
    if (hammerStats.path == core::HammerPath::Transform)
        json.key("path").value(core::hammerPathName(hammerStats.path));
    json.endObject();

    json.key("metrics").beginObject();
    json.key("pst_raw").value(pstRaw);
    json.key("pst_mitigated").value(pstMitigated);
    json.key("ist_raw").value(istRaw);
    json.key("ist_mitigated").value(istMitigated);
    json.key("ehd_raw").value(ehdRaw);
    json.key("ehd_mitigated").value(ehdMitigated);
    json.endObject();

    json.key("histogram").beginObject();
    json.key("raw");
    writeHistogramJson(json, raw, max_outcomes);
    json.key("mitigated");
    writeHistogramJson(json, mitigated, max_outcomes);
    json.endObject();

    json.endObject();
    std::string line = json.take();
    line += '\n';
    return line;
}

// ---------------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------------

Result
Pipeline::run(const ExperimentSpec &spec) const
{
    RunState state;
    Result result = buildWorkload(spec, state);
    execute(spec, state, result);
    mitigate(spec, state, result);
    score(state, result);
    return result;
}

Result
Pipeline::buildWorkload(const ExperimentSpec &spec,
                        RunState &state) const
{
    // Validate every budget at the boundary so bad values fail with
    // a named field instead of flowing into the samplers.
    validateBackendSpec(spec.backendSpec);
    require(spec.workloadInstance.has_value() || !spec.workload.empty(),
            "Pipeline: spec needs a workload (workload spec or "
            "prebuilt instance)");

    Result result;
    result.backendName = spec.backend;
    result.mitigationName = "none";
    result.shots = spec.backendSpec.shots;
    result.seed = spec.backendSpec.seed;
    result.machine =
        spec.backendSpec.model ? "custom" : spec.backendSpec.machine;

    state.rng = common::Rng(spec.backendSpec.seed);

    const auto start = std::chrono::steady_clock::now();
    Workload workload = spec.workloadInstance
        ? *spec.workloadInstance
        : makeWorkload(spec.workload, state.rng);
    require(workload.measuredQubits >= 1,
            "Pipeline: workload measures no qubits");
    result.timings.push_back({"workload", secondsSince(start)});
    result.workloadSpec =
        workload.spec.empty() ? spec.workload : workload.spec;
    result.family = workload.family;
    result.measuredQubits = workload.measuredQubits;
    result.label =
        spec.label.empty() ? result.workloadSpec : spec.label;

    state.workload = std::move(workload);
    return result;
}

void
Pipeline::standUpBackend(const ExperimentSpec &spec, RunState &state,
                         Result &result) const
{
    const auto start = std::chrono::steady_clock::now();
    state.model = resolveNoiseModel(spec.backendSpec);
    state.sampler = makeBackend(spec.backend, spec.backendSpec);
    result.timings.push_back({"backend", secondsSince(start)});
}

void
Pipeline::execute(const ExperimentSpec &spec, RunState &state,
                  Result &result) const
{
    standUpBackend(spec, state, result);

    // Noisy execution through the parallel batched engine.
    const auto start = std::chrono::steady_clock::now();
    result.raw = state.sampler->sample(
        state.workload->routed, state.workload->measuredQubits,
        spec.backendSpec.shots, state.rng, spec.backendSpec.threads);
    result.timings.push_back({"sample", secondsSince(start)});
}

void
Pipeline::mitigate(const ExperimentSpec &spec, RunState &state,
                   Result &result) const
{
    const auto start = std::chrono::steady_clock::now();
    MitigationContext ctx;
    ctx.workload = &*state.workload;
    ctx.model = state.model;
    ctx.sampler = state.sampler.get();
    ctx.shots = spec.backendSpec.shots;
    ctx.threads = spec.backendSpec.threads;
    ctx.rng = &state.rng;
    ctx.stats = &result.hammerStats;
    if (spec.mitigator) {
        result.mitigated = spec.mitigator->apply(result.raw, ctx);
        result.mitigationName = spec.mitigator->name();
    } else {
        const MitigationChain chain =
            mitigationChainFromSpec(spec.mitigation);
        result.mitigated =
            chain.empty() ? result.raw : chain.apply(result.raw, ctx);
        result.mitigationName = chain.name();
    }
    result.timings.push_back({"mitigate", secondsSince(start)});
    // Chain-internal per-stage wall-clock: "mitigate:<stage>" rows so
    // multi-stage specs ("readout,hammer") expose where the time went.
    for (const auto &[stage, seconds] : ctx.stageSeconds)
        result.timings.push_back({"mitigate:" + stage, seconds});
}

void
Pipeline::score(RunState &state, Result &result) const
{
    const auto start = std::chrono::steady_clock::now();
    if (!state.workload->correctOutcomes.empty()) {
        const auto &correct = state.workload->correctOutcomes;
        result.pstRaw = metrics::pst(result.raw, correct);
        result.pstMitigated = metrics::pst(result.mitigated, correct);
        result.istRaw = metrics::ist(result.raw, correct);
        result.istMitigated = metrics::ist(result.mitigated, correct);
        result.ehdRaw =
            core::expectedHammingDistance(result.raw, correct);
        result.ehdMitigated =
            core::expectedHammingDistance(result.mitigated, correct);
    } else {
        const double nan = std::numeric_limits<double>::quiet_NaN();
        result.pstRaw = result.pstMitigated = nan;
        result.istRaw = result.istMitigated = nan;
        result.ehdRaw = result.ehdMitigated = nan;
    }
    result.timings.push_back({"score", secondsSince(start)});

    result.workload = std::move(state.workload);
}

} // namespace hammer::api
