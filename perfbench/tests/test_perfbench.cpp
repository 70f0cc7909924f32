/**
 * Unit tests of the benchmark itself: the request generator is a pure
 * function of the seed, warm-up seeds never meet timed ones, a latency
 * tail with fewer than ten samples beyond p90 is refused, the HAMMER
 * reference check accepts the library's output and rejects a perturbed
 * one, and the heap accounting behind peak_heap_mb sees a block the
 * size of a state vector come and go.
 *
 *   perfbench_tests    (exit 0 = all passed)
 */

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "api/service.hpp"
#include "check.hpp"
#include "core/hammer.hpp"
#include "heap.hpp"
#include "metrics.hpp"
#include "requests.hpp"
#include "stats.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what.c_str());
    }
}

std::vector<std::string>
describeAll(WorkloadKind kind, std::uint64_t seed, bool warmup)
{
    std::vector<std::string> out;
    for (const Request &r : generate(kind, seed, warmup, 24))
        out.push_back(r.describe());
    return out;
}

std::uint64_t
experimentSeedOf(const Request &r)
{
    if (r.qaoa)
        return r.qaoa->seed;
    return api::parseSpecLine(r.line).spec.backendSpec.seed;
}

void
testGeneratorIsPureInTheSeed()
{
    for (const WorkloadConfig &w : workloads()) {
        const std::string name = w.name;
        const auto a = describeAll(w.kind, 7, false);
        expect(a == describeAll(w.kind, 7, false),
               name + ": same seed gives the same requests");
        expect(a != describeAll(w.kind, 8, false),
               name + ": another seed gives other requests");
        expect(a.size() == 24 * static_cast<std::size_t>(w.groupSize),
               name + ": every group has groupSize requests");
        expect(describeAll(w.kind, 7, true) == describeAll(w.kind, 8, true),
               name + ": the warm-up is the same for every seed");

        std::set<std::uint64_t> timed, warm;
        for (const Request &r : generate(w.kind, 7, false, 24))
            timed.insert(experimentSeedOf(r));
        for (const Request &r : generate(w.kind, 7, true, 24))
            warm.insert(experimentSeedOf(r));
        bool disjoint = true;
        for (const std::uint64_t s : warm)
            disjoint = disjoint && s >= kWarmupSeedBase && !timed.count(s);
        expect(disjoint, name + ": warm-up seeds are disjoint from timed");

        for (const Request &r : generate(w.kind, 7, false, 4)) {
            if (!r.qaoa)
                parseRequest(r); // every line parses
        }
    }
}

void
testTailNeedsTenSamplesBeyondP90()
{
    std::vector<double> xs;
    for (int i = 1; i <= 99; ++i)
        xs.push_back(i);
    bool threw = false;
    try {
        tailQuantile(xs, 0.9);
    } catch (const TailTooThin &) {
        threw = true;
    }
    expect(threw, "99 samples cannot report a p90");

    xs.push_back(100);
    expect(std::abs(tailQuantile(xs, 0.9) - 90.1) < 1e-12,
           "100 samples report p90 = 90.1");
    expect(std::abs(median(xs) - 50.5) < 1e-12, "median of 1..100");

    // The end-to-end report refuses a run with a thin tail.
    PhaseResult phase;
    for (int i = 0; i < 50; ++i) {
        RequestRecord r;
        r.ok = true;
        r.end = 1.0 + i;
        phase.records.push_back(r);
    }
    phase.wall = 10.0;
    phase.setupSeconds = {1.0};
    threw = false;
    try {
        endToEndMetrics(phase);
    } catch (const TailTooThin &) {
        threw = true;
    }
    expect(threw, "a 50-request run fails instead of reporting a tail");
}

void
testHammerReferenceCheck()
{
    core::Distribution raw(6);
    const double probs[] = {0.40, 0.12, 0.10, 0.08, 0.07, 0.06,
                            0.05, 0.04, 0.03, 0.02, 0.02, 0.01};
    common::Bits outcome = 0b101100;
    for (const double p : probs) {
        raw.set(outcome, p);
        outcome = (outcome * 37 + 11) & 0b111111;
    }
    raw.normalize();
    const core::Distribution mitigated = core::reconstruct(raw);
    expect(hammerReferenceCheck(raw, mitigated).empty(),
           "reconstruct() passes the Algorithm 1 reference");

    core::Distribution bent = mitigated;
    const core::Entry top = bent.topOutcome();
    bent.set(top.outcome, top.probability * (1.0 + 1e-6));
    expect(!hammerReferenceCheck(raw, bent).empty(),
           "a 1e-6 perturbation fails the reference");
}

void
testHeapPeakSeesALargeBlock()
{
    constexpr std::int64_t kBlock = 8 << 20;
    constexpr std::int64_t kSlack = 1 << 20; // per-thread batching
    const std::int64_t before = heapLiveBytes();
    {
        std::vector<char> block(static_cast<std::size_t>(kBlock), 1);
        expect(heapLiveBytes() - before >= kBlock - kSlack,
               "an 8 MB vector counts as live");
        expect(heapPeakBytes() >= before + kBlock - kSlack,
               "the peak includes the 8 MB vector");
    }
    expect(heapLiveBytes() - before < kSlack,
           "freeing the vector gives its bytes back");
}

void
testCataloguesAreUnique()
{
    std::set<std::string> names;
    std::size_t count = 0;
    for (const auto *cat : {&endToEndCatalogue(), &perLayerCatalogue()}) {
        for (const MetricDef &d : *cat) {
            names.insert(d.name);
            ++count;
        }
    }
    expect(names.size() == count, "metric names are unique");
}

} // namespace

int
main()
{
    testGeneratorIsPureInTheSeed();
    testTailNeedsTenSamplesBeyondP90();
    testHammerReferenceCheck();
    testHeapPeakSeesALargeBlock();
    testCataloguesAreUnique();
    if (failures == 0)
        std::printf("perfbench_tests: all passed\n");
    return failures == 0 ? 0 : 1;
}
