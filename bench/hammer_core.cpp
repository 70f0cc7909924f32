/**
 * @file
 * Data-layer microbenchmark: accumulate -> reconstruct -> score on
 * synthetic clustered supports of growing N, against node-based
 * std::map baselines of the same algorithms, then HAMMER's transform
 * path against the forced pair scan on sampled histograms.
 *
 * This is the perf trajectory of the flat Hamming-space data layer
 * itself, isolated from circuit simulation: per-shot histogramming
 * into CountAccumulator vs a std::map histogram, HAMMER's O(N^2)
 * pair scans over flat sorted vectors vs a map-backed histogram, and
 * EHD scoring.  The clustered supports are tie-free, so reconstruct()
 * scans them; the sampled rows (BV drawn through `channel`, most
 * outcomes one-shot ties) take the transform path, and each reports
 * the speedup over the scan and the path rule's cost constant fitted
 * to its timings.  Emits BENCH_core.json in smoke mode so CI tracks
 * the speedups push over push.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <set>
#include <vector>

#include "api/api.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/distribution.hpp"
#include "core/ehd.hpp"
#include "core/hammer.hpp"
#include "core/hammer_path.hpp"
#include "core/spectrum.hpp"
#include "support/report.hpp"

namespace {

using namespace hammer;
using common::Bits;
using core::Distribution;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count();
}

/**
 * Synthetic NISQ-shaped support: N distinct outcomes clustered
 * around an all-ones key, probability decaying with distance (the
 * histogram shape HAMMER targets).
 */
Distribution
clusteredSupport(int num_bits, std::size_t support, common::Rng &rng)
{
    const Bits key = (Bits{1} << num_bits) - 1;
    std::set<Bits> outcomes{key};
    while (outcomes.size() < support) {
        Bits flips = 0;
        const int weight = 1 + static_cast<int>(rng.uniformInt(
            static_cast<std::uint64_t>(num_bits) / 2));
        for (int f = 0; f < weight; ++f)
            flips |= Bits{1} << rng.uniformInt(
                static_cast<std::uint64_t>(num_bits));
        outcomes.insert(key ^ flips);
    }
    std::vector<core::Entry> entries;
    entries.reserve(outcomes.size());
    for (const Bits x : outcomes) {
        const int d = common::hammingDistance(x, key);
        entries.push_back(
            {x, (0.5 + rng.uniform()) * std::exp(-0.6 * d)});
    }
    Distribution dist =
        Distribution::fromSorted(num_bits, std::move(entries));
    dist.normalize();
    return dist;
}

/** std::map histogram baseline for the accumulate phase. */
std::map<Bits, std::uint64_t>
mapAccumulate(const std::vector<Bits> &shots, int workers)
{
    // Same worker partition as the flat path, merged linearly.
    std::vector<std::map<Bits, std::uint64_t>> partials(
        static_cast<std::size_t>(workers));
    for (std::size_t s = 0; s < shots.size(); ++s)
        ++partials[s % static_cast<std::size_t>(workers)][shots[s]];
    std::map<Bits, std::uint64_t> merged;
    for (const auto &partial : partials) {
        for (const auto &[outcome, count] : partial)
            merged[outcome] += count;
    }
    return merged;
}

/**
 * The seed's reconstruction algorithm on a node-based histogram: the
 * same Algorithm 1 arithmetic, but every pair scan walks a
 * std::map<Bits, double> — the storage the flat data layer replaced.
 */
Distribution
mapReconstruct(const Distribution &input)
{
    const int n = input.numBits();
    const int dmax = core::defaultMaxDistance(n);
    std::map<Bits, double> hist;
    for (const auto &e : input.entries())
        hist.emplace(e.outcome, e.probability);

    std::vector<double> chs(static_cast<std::size_t>(dmax) + 1, 0.0);
    for (const auto &[x, px] : hist) {
        chs[0] += px;
        for (const auto &[y, py] : hist) {
            if (y == x)
                continue;
            const int d = common::hammingDistance(x, y);
            if (d <= dmax)
                chs[static_cast<std::size_t>(d)] += py;
        }
    }
    std::vector<double> weights(chs.size(), 0.0);
    for (std::size_t d = 0; d < chs.size(); ++d) {
        if (chs[d] > 0.0)
            weights[d] = 1.0 / chs[d];
    }

    std::map<Bits, double> rescored;
    for (const auto &[x, px] : hist) {
        double score = px;
        for (const auto &[y, py] : hist) {
            if (y == x)
                continue;
            const int d = common::hammingDistance(x, y);
            if (d > dmax || !(px > py))
                continue;
            score += weights[static_cast<std::size_t>(d)] * py;
        }
        rescored[x] = score * px;
    }

    Distribution out(n);
    for (const auto &[x, p] : rescored)
        out.set(x, p);
    out.normalize();
    return out;
}

/** @p workload's raw histogram drawn through the `channel` backend. */
Distribution
channelHistogram(const std::string &workload, int shots)
{
    api::ExperimentSpec spec;
    spec.workload = workload;
    spec.backend = "channel";
    spec.backendSpec.shots = shots;
    spec.backendSpec.seed = 3;
    spec.mitigation = "none";
    return api::Pipeline().run(spec).raw;
}

/** Largest relative difference of outputs, CHS and weights. */
double
maxRelativeDifference(const Distribution &a, const core::HammerStats &sa,
                      const Distribution &b, const core::HammerStats &sb)
{
    const auto rel = [](double x, double y) {
        return x == y ? 0.0
                      : std::abs(x - y) /
                            std::max(std::abs(x), std::abs(y));
    };
    double worst = 0.0;
    for (const auto &e : a.entries())
        worst = std::max(worst, rel(e.probability,
                                    b.probability(e.outcome)));
    for (std::size_t d = 0; d < sa.aggregateChs.size(); ++d) {
        worst = std::max(worst, rel(sa.aggregateChs[d],
                                    sb.aggregateChs[d]));
        worst = std::max(worst, rel(sa.weights[d], sb.weights[d]));
    }
    return worst;
}

/**
 * The transform rows: reconstruct() against the forced scan, on one
 * thread, median of interleaved repeats.  Fails on a disagreement
 * beyond 1e-12, on a row that does not take the transform, and in
 * full mode on a 20-bit speedup below 3x.  Smoke mode gates no
 * timing: a floor would flake on a shared host.
 */
int
transformRows(bench::BenchReport &report, bool smoke)
{
    struct Row
    {
        const char *tag;
        const char *workload;
        int shots;
    };
    std::vector<Row> rows = {{"bv14", "bv:14:00100100001111", 16384},
                             {"bv16", "bv:16:1001010000010101", 16384}};
    if (!smoke)
        rows.push_back({"bv20", "bv:20:10110011100011110101", 65536});

    common::Table table({"row", "n", "N", "L/N", "path", "scan_ms",
                         "reconstruct_ms", "speedup", "cost_fit"});
    int status = 0;
    for (const Row &row : rows) {
        const Distribution dist = channelHistogram(row.workload,
                                                   row.shots);
        const int n = dist.numBits();
        const std::size_t count = dist.support();
        const double low = dist.sortedByProbability().back().probability;
        std::size_t tied = 0;
        for (const auto &e : dist.entries())
            tied += e.probability == low ? 1 : 0;

        core::HammerConfig serial;
        serial.threads = 1;
        const int repeats = n >= 20 ? 3 : smoke ? 5 : 9;
        std::vector<double> t_scan;
        std::vector<double> t_rec;
        core::HammerStats scan_stats;
        core::HammerStats rec_stats;
        Distribution scanned(n);
        Distribution rec(n);
        for (int r = 0; r < repeats; ++r) {
            auto start = std::chrono::steady_clock::now();
            scanned = core::detail::reconstructOnPath(
                core::HammerPath::Scan, dist, serial, &scan_stats);
            t_scan.push_back(secondsSince(start));
            start = std::chrono::steady_clock::now();
            rec = core::reconstruct(dist, serial, &rec_stats);
            t_rec.push_back(secondsSince(start));
        }
        std::sort(t_scan.begin(), t_scan.end());
        std::sort(t_rec.begin(), t_rec.end());
        const double scan_s = t_scan[t_scan.size() / 2];
        const double rec_s = t_rec[t_rec.size() / 2];
        const double speedup = rec_s > 0.0 ? scan_s / rec_s : 0.0;
        // The rule prices the transform path at c n 2^n + M^2 pairs
        // against the scan's N^2: the c that reproduces this row's
        // measured time ratio.
        const double outcomes = static_cast<double>(count);
        const double upper = static_cast<double>(count - tied);
        const double cost_fit =
            (outcomes * outcomes * (rec_s / scan_s) - upper * upper) /
            (n * std::ldexp(1.0, n));

        table.addRow(
            {row.tag, common::Table::fmt(static_cast<long long>(n)),
             common::Table::fmt(static_cast<long long>(count)),
             common::Table::fmt(static_cast<double>(tied) / outcomes, 2),
             core::hammerPathName(rec_stats.path),
             common::Table::fmt(scan_s * 1e3, 2),
             common::Table::fmt(rec_s * 1e3, 2),
             common::Table::fmt(speedup, 2),
             common::Table::fmt(cost_fit, 2)});
        const std::string tag = std::string("_") + row.tag;
        report.metric("reconstruct_scan_s" + tag, scan_s);
        report.metric("reconstruct_transform_s" + tag, rec_s);
        report.metric("reconstruct_transform_speedup" + tag, speedup);
        report.metric("transform_cost_fit" + tag, cost_fit);

        const double diff =
            maxRelativeDifference(rec, rec_stats, scanned, scan_stats);
        if (diff > 1e-12) {
            std::printf("ERROR: %s: transform and scan differ by %.3g "
                        "(relative)\n", row.tag, diff);
            status = 1;
        }
        if (rec_stats.path != core::HammerPath::Transform) {
            std::printf("ERROR: %s did not take the transform path\n",
                        row.tag);
            status = 1;
        }
        if (n >= 20 && speedup < 3.0) {
            std::printf("ERROR: %s: transform path only %.2fx the scan "
                        "(floor 3x)\n", row.tag, speedup);
            status = 1;
        }
    }
    table.print(std::cout);
    return status;
}

} // namespace

int
main()
{
    std::puts("== Data layer: flat vs map, accumulate -> reconstruct "
              "-> score ==");
    bench::BenchReport report("core");
    common::Rng rng(0xC03E);

    const int num_bits = 16;
    const Bits key = (Bits{1} << num_bits) - 1;
    const bool smoke = api::smokeMode();
    const std::vector<std::size_t> supports =
        smoke ? std::vector<std::size_t>{256, 512}
              : std::vector<std::size_t>{512, 1024, 2048, 4096};
    const std::size_t shots = smoke ? 50000 : 400000;
    constexpr int kWorkers = 4;

    common::Table table({"N", "acc_flat_ms", "acc_map_ms", "acc_x",
                         "rec_flat_ms", "rec_map_ms",
                         "rec_x", "score_ms"});

    for (const std::size_t support : supports) {
        const Distribution dist =
            clusteredSupport(num_bits, support, rng);

        // Shot stream: uniform draws over the support, fixed per N.
        std::vector<Bits> stream(shots);
        for (Bits &shot : stream)
            shot = dist.entries()[rng.uniformInt(support)].outcome;

        // -- Accumulate: flat CountAccumulator + treeReduce vs map.
        auto start = std::chrono::steady_clock::now();
        std::vector<core::CountAccumulator> partials(kWorkers);
        for (std::size_t s = 0; s < stream.size(); ++s)
            partials[s % kWorkers].add(stream[s]);
        const core::CountAccumulator flat_counts =
            core::CountAccumulator::treeReduce(partials);
        const double acc_flat = secondsSince(start);

        start = std::chrono::steady_clock::now();
        const auto map_counts = mapAccumulate(stream, kWorkers);
        const double acc_map = secondsSince(start);

        if (map_counts.size() != flat_counts.counts().size()) {
            std::puts("ERROR: flat and map histograms disagree");
            return 1;
        }

        // -- Reconstruct: flat sorted pair scan vs map-backed.
        core::HammerConfig serial;
        serial.threads = 1;
        start = std::chrono::steady_clock::now();
        const Distribution rec_flat = core::reconstruct(dist, serial);
        const double t_rec_flat = secondsSince(start);

        start = std::chrono::steady_clock::now();
        const Distribution rec_map = mapReconstruct(dist);
        const double t_rec_map = secondsSince(start);

        double max_diff = 0.0;
        for (const auto &e : rec_flat.entries())
            max_diff = std::max(
                max_diff,
                std::abs(e.probability -
                         rec_map.probability(e.outcome)));
        if (max_diff > 1e-9) {
            std::printf("ERROR: flat/map reconstruction diverged "
                        "(max diff %.3g)\n", max_diff);
            return 1;
        }

        // -- Score.
        start = std::chrono::steady_clock::now();
        const double ehd =
            core::expectedHammingDistance(rec_flat, {key});
        const double t_score = secondsSince(start);

        const double acc_speedup = acc_flat > 0.0 ? acc_map / acc_flat
                                                  : 0.0;
        const double rec_speedup =
            t_rec_flat > 0.0 ? t_rec_map / t_rec_flat : 0.0;
        table.addRow(
            {common::Table::fmt(static_cast<long long>(support)),
             common::Table::fmt(acc_flat * 1e3, 2),
             common::Table::fmt(acc_map * 1e3, 2),
             common::Table::fmt(acc_speedup, 2),
             common::Table::fmt(t_rec_flat * 1e3, 2),
             common::Table::fmt(t_rec_map * 1e3, 2),
             common::Table::fmt(rec_speedup, 2),
             common::Table::fmt(t_score * 1e3, 3)});

        const std::string tag = "_n" + std::to_string(support);
        report.metric("accumulate_flat_s" + tag, acc_flat);
        report.metric("accumulate_map_s" + tag, acc_map);
        report.metric("speedup_accumulate" + tag, acc_speedup);
        report.metric("reconstruct_flat_s" + tag, t_rec_flat);
        report.metric("reconstruct_map_s" + tag, t_rec_map);
        report.metric("speedup_reconstruct" + tag, rec_speedup);
        report.metric("score_s" + tag, t_score);
        report.metric("ehd" + tag, ehd);
    }

    table.print(std::cout);
    std::puts("\nflat vs map: same histograms, same reconstruction, "
              "map-based baseline pays node allocation + pointer "
              "chasing on every hot-path scan");

    std::puts("\n== HAMMER transform path vs forced scan, sampled "
              "histograms, 1 thread ==");
    return transformRows(report, smoke);
}
