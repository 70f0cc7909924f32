#include "check.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "api/service.hpp"
#include "common/bitops.hpp"
#include "core/hammer.hpp"
#include "core/spectrum.hpp"

namespace perfbench {

namespace {

std::string
checkHistogram(const char *which, const core::Distribution &dist,
               int measuredQubits)
{
    const std::string name(which);
    if (dist.numBits() != measuredQubits)
        return name + " histogram is " + std::to_string(dist.numBits()) +
               " bits wide, expected " + std::to_string(measuredQubits);
    if (dist.support() == 0)
        return name + " histogram is empty";
    for (const core::Entry &e : dist.entries()) {
        if (!(e.probability >= 0.0) || !std::isfinite(e.probability))
            return name + " histogram has a bad probability";
    }
    if (!dist.normalized(1e-9))
        return name + " histogram is not normalised (mass " +
               std::to_string(dist.totalMass()) + ")";
    return "";
}

bool
closeRel(double a, double b, double relTol)
{
    return std::abs(a - b) <= relTol * std::max(std::abs(a), std::abs(b));
}

} // namespace

std::string
checkResult(const Request &request, const api::ExperimentSpec &spec,
            const api::Result &result)
{
    if (result.workloadSpec != spec.workload)
        return "workload '" + result.workloadSpec + "' != '" +
               spec.workload + "'";
    if (result.backendName != spec.backend)
        return "backend '" + result.backendName + "' != '" + spec.backend +
               "'";
    if (result.machine != spec.backendSpec.machine)
        return "machine '" + result.machine + "' != '" +
               spec.backendSpec.machine + "'";
    if (result.mitigationName != request.chain)
        return "mitigation '" + result.mitigationName + "' != '" +
               request.chain + "'";
    if (result.shots != spec.backendSpec.shots)
        return "shots mismatch";
    if (result.seed != spec.backendSpec.seed)
        return "seed mismatch";
    if (result.measuredQubits != request.measuredQubits)
        return "measured qubits mismatch";
    if (result.degraded)
        return "served a degraded result";
    std::string bad = checkHistogram("raw", result.raw, request.measuredQubits);
    if (bad.empty())
        bad = checkHistogram("mitigated", result.mitigated,
                             request.measuredQubits);
    return bad;
}

bool
inDeepSample(std::uint64_t seed, std::size_t index, int every)
{
    const auto k = static_cast<std::uint64_t>(every);
    return index % k == seed % k;
}

std::string
hammerReferenceCheck(const core::Distribution &raw,
                     const core::Distribution &mitigated, double relTol)
{
    const auto &entries = raw.entries();
    const std::size_t count = entries.size();
    const int dmax = core::defaultMaxDistance(raw.numBits());
    const std::vector<double> weights = core::hammerWeights(raw);

    // Algorithm 1 lines 14-22, written out: S(x) seeds with P(x) and
    // adds W_d * P(y) for every less probable y within dmax.
    std::vector<double> score(count);
    for (std::size_t i = 0; i < count; ++i) {
        const double px = entries[i].probability;
        double s = px;
        for (std::size_t j = 0; j < count; ++j) {
            if (j == i)
                continue;
            const int d = common::hammingDistance(entries[i].outcome,
                                                  entries[j].outcome);
            if (d > dmax || !(px > entries[j].probability))
                continue;
            s += weights[static_cast<std::size_t>(d)] *
                 entries[j].probability;
        }
        score[i] = s;
    }

    // Pin the loop above to the library's reference scorer.
    std::size_t hi = 0, lo = 0;
    for (std::size_t i = 1; i < count; ++i) {
        if (entries[i].probability > entries[hi].probability)
            hi = i;
        if (entries[i].probability < entries[lo].probability)
            lo = i;
    }
    for (const std::size_t i : {hi, lo}) {
        const double ref = core::neighborhoodScore(raw, entries[i].outcome);
        if (!closeRel(score[i], ref, 1e-12))
            return "reference score disagrees with core::neighborhoodScore";
    }

    double total = 0.0;
    for (std::size_t i = 0; i < count; ++i)
        total += score[i] * entries[i].probability;
    if (mitigated.support() != count)
        return "mitigated support " + std::to_string(mitigated.support()) +
               " != raw support " + std::to_string(count);
    for (std::size_t i = 0; i < count; ++i) {
        const double want = score[i] * entries[i].probability / total;
        const double got = mitigated.probability(entries[i].outcome);
        if (!closeRel(got, want, relTol))
            return "mitigated P(" +
                   common::toBitstring(entries[i].outcome, raw.numBits()) +
                   ") = " + std::to_string(got) + ", reference " +
                   std::to_string(want);
    }
    return "";
}

std::string
deepCheck(const api::ExperimentSpec &spec, const std::string &servedJson,
          const std::string &chain, int threads)
{
    api::ExperimentSpec fresh = spec;
    fresh.backendSpec.threads = threads;
    const api::Result reference = api::Pipeline().run(fresh);
    if (api::canonicalResultJson(servedJson) !=
        api::canonicalResultJson(reference.json()))
        return "served result differs from a fresh Pipeline::run";
    if (chain == "hammer")
        return hammerReferenceCheck(reference.raw, reference.mitigated);
    return "";
}

} // namespace perfbench
