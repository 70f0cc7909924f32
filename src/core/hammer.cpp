#include "core/hammer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <optional>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "core/hammer_path.hpp"
#include "core/pair_scan.hpp"
#include "core/spectrum.hpp"

namespace hammer::core {

using common::Bits;
using common::require;
using common::ThreadPool;

namespace {

// Fixed work-item size (sorted rows) for the parallel pair scan.  The
// chunk schedule depends only on the support size — never the thread
// count — which is what makes the chunk-indexed partials (and so the
// whole reconstruction) bit-identical for any number of workers.
constexpr std::size_t kScanChunk = 64;

// The path rule (detail::hammerPathFor) and its only constants.  The
// transform path holds 12 * 2^n bytes of scratch, so it is capped at
// 20 bits and at 64 transform entries per outcome.  It is priced at
// c n 2^n + M^2 pair visits against the scan's N^2.  c is fitted to
// BENCH_core's sampled rows on one thread: each row reports the c
// that reproduces its measured time ratio (transform_cost_fit_<row>),
// with medians of 3.2 (bv14), 2.5 (bv16) and 2.6 (bv20) over 8, 8 and
// 2 runs on a 4-vCPU Xeon at the avx2 tier.  Rounding up leans toward
// the scan, the reference path, near the break-even.
constexpr int kTransformMaxBits = 20;
constexpr double kTransformMaxEntriesPerOutcome = 64.0;
constexpr double kTransformCost = 3.0;

/** Resolve config.maxDistance to the effective bound. */
int
effectiveMaxDistance(const Distribution &input, const HammerConfig &config)
{
    if (config.maxDistance < 0)
        return defaultMaxDistance(input.numBits());
    require(config.maxDistance <= input.numBits(),
            "HammerConfig: maxDistance exceeds output width");
    return config.maxDistance;
}

/** Step 2: derive per-distance weights from the aggregate CHS. */
std::vector<double>
weightsFromChs(const std::vector<double> &chs, int num_bits,
               WeightScheme scheme)
{
    std::vector<double> weights(chs.size(), 0.0);
    for (std::size_t d = 0; d < chs.size(); ++d) {
        switch (scheme) {
          case WeightScheme::InverseChs:
            if (chs[d] > 0.0)
                weights[d] = 1.0 / chs[d];
            break;
          case WeightScheme::Uniform:
            weights[d] = 1.0;
            break;
          case WeightScheme::InverseBinomial:
            weights[d] = 1.0 / common::binomial(num_bits,
                                                static_cast<int>(d));
            break;
        }
    }
    return weights;
}

/** Per-chunk partial of the Step-1 CHS aggregation. */
struct ChsPartial
{
    std::vector<double> chs;
    std::uint64_t pairOps = 0;
};

/**
 * Combine chunk partials with a pairwise reduction tree (round k
 * merges partials 2^k apart).  The merge order is a pure function of
 * the chunk count, so the summed CHS is independent of which worker
 * produced which partial.  No partials (no rows) sum to an empty one.
 */
ChsPartial
treeReduceChs(std::vector<ChsPartial> &parts)
{
    if (parts.empty())
        return {};
    for (std::size_t stride = 1; stride < parts.size(); stride *= 2) {
        for (std::size_t i = 0; i + stride < parts.size();
             i += 2 * stride) {
            ChsPartial &into = parts[i];
            const ChsPartial &from = parts[i + stride];
            for (std::size_t d = 0; d < into.chs.size(); ++d)
                into.chs[d] += from.chs[d];
            into.pairOps += from.pairOps;
        }
    }
    return std::move(parts[0]);
}

/**
 * The support sorted by probability, descending, ties by outcome, as
 * struct-of-arrays: the scan streams outcomes (eight per cache line)
 * and probs.  Tie groups are contiguous, so every outcome strictly
 * less probable than row i lies at or past groupEnd[i].
 */
struct SortedSupport
{
    explicit SortedSupport(const Distribution &input)
    {
        const auto &entries = input.entries();
        const std::size_t count = entries.size();
        index.resize(count);
        for (std::size_t k = 0; k < count; ++k)
            index[k] = k;
        std::sort(index.begin(), index.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (entries[a].probability != entries[b].probability)
                          return entries[a].probability >
                                 entries[b].probability;
                      return entries[a].outcome < entries[b].outcome;
                  });
        outcomes.resize(count);
        probs.resize(count);
        for (std::size_t k = 0; k < count; ++k) {
            outcomes[k] = entries[index[k]].outcome;
            probs[k] = entries[index[k]].probability;
        }
        groupEnd.resize(count);
        for (std::size_t k = count; k-- > 0;) {
            groupEnd[k] = k + 1 < count && probs[k + 1] == probs[k]
                              ? groupEnd[k + 1]
                              : k + 1;
        }
        lastGroup = count;
        while (lastGroup > 0 && groupEnd[lastGroup - 1] == count)
            --lastGroup;
    }

    std::vector<Bits> outcomes;
    std::vector<double> probs;
    std::vector<std::size_t> index;    ///< Sorted row -> entries() slot.
    std::vector<std::size_t> groupEnd; ///< One past row k's tie group.
    std::size_t lastGroup = 0; ///< First row of the least probable group.
};

/** Add the kScanLanes lane copies of bin d into out[d], lane order. */
void
foldLanes(const std::vector<double> &lanes, std::size_t stride,
          std::size_t bins, double *out)
{
    for (std::size_t d = 0; d < bins; ++d) {
        for (std::size_t lane = 0; lane < detail::kScanLanes; ++lane)
            out[d] += lanes[lane * stride + d];
    }
}

} // namespace

std::vector<double>
hammerWeights(const Distribution &input, const HammerConfig &config)
{
    const int dmax = effectiveMaxDistance(input, config);
    return weightsFromChs(aggregateChs(input, dmax), input.numBits(),
                          config.weightScheme);
}

double
neighborhoodScore(const Distribution &input, Bits x,
                  const HammerConfig &config)
{
    const int dmax = effectiveMaxDistance(input, config);
    const auto weights = hammerWeights(input, config);
    const double px = input.probability(x);

    double score = px; // Algorithm 1 line 17 seeds with P_in[x].
    for (const Entry &y : input.entries()) {
        if (y.outcome == x)
            continue;
        const int d = common::hammingDistance(x, y.outcome);
        if (d > dmax)
            continue;
        if (config.filterLowerProbability && !(px > y.probability))
            continue;
        score += weights[static_cast<std::size_t>(d)] * y.probability;
    }
    return score;
}

namespace {

/** What the pair scan produced. */
struct ScanOutput
{
    std::vector<double> chs;  ///< Step-1 bins 0..n (with step1 only).
    std::vector<double> hist; ///< Step-3 rows of bins 0..dmax each.
    std::uint64_t pairOps = 0;
};

/**
 * The pair scan over sorted rows [0, rows), in fixed-size row chunks.
 * With @p step1, row i visits each j > i once for Step 1, and its
 * Step-3 neighbours are the rows past its tie group (every j != i
 * without the filter); rows of the least probable tie group keep no
 * histogram under the filter.  Without @p step1 (the transform path's
 * residual scan, filter on, rows above the least probable group)
 * row i visits only the rows past its tie group.
 */
ScanOutput
scanPairs(const SortedSupport &s, std::size_t rows, bool step1,
          bool filter, std::size_t stride, std::size_t bins, int threads)
{
    const detail::PairScanFn scan =
        detail::pairScanForTier(common::activeTier());
    const std::size_t hRows = filter ? std::min(rows, s.lastGroup) : rows;
    ScanOutput out;
    out.hist.assign(hRows * bins, 0.0);
    std::vector<ChsPartial> partials(ThreadPool::chunkCount(rows,
                                                             kScanChunk));
    ThreadPool::runChunked(
        threads, rows, kScanChunk,
        [&](std::size_t c, std::size_t begin, std::size_t end, int) {
            ChsPartial &partial = partials[c];
            partial.chs.assign(step1 ? stride : 0, 0.0);
            std::vector<double> chsLanes(
                step1 ? detail::kScanLanes * stride : 0, 0.0);
            std::vector<double> hLanes(detail::kScanLanes * stride);
            for (std::size_t i = begin; i < end; ++i) {
                const Bits x = s.outcomes[i];
                const double px = s.probs[i];
                double *h = nullptr;
                if (i < hRows) {
                    std::fill(hLanes.begin(), hLanes.end(), 0.0);
                    h = hLanes.data();
                }
                const std::size_t split = filter ? s.groupEnd[i] : i + 1;
                if (step1) {
                    partial.chs[0] += px;
                    if (!filter)
                        scan(x, px, s.outcomes.data(), s.probs.data(), 0,
                             i, stride, nullptr, h);
                    scan(x, px, s.outcomes.data(), s.probs.data(), i + 1,
                         split, stride, chsLanes.data(), nullptr);
                    scan(x, px, s.outcomes.data(), s.probs.data(), split,
                         rows, stride, chsLanes.data(), h);
                    partial.pairOps += filter ? rows - 1 - i : rows - 1;
                } else {
                    scan(x, px, s.outcomes.data(), s.probs.data(), split,
                         rows, stride, nullptr, h);
                    partial.pairOps += rows - split;
                }
                if (h != nullptr)
                    foldLanes(hLanes, stride, bins, &out.hist[i * bins]);
            }
            if (step1)
                foldLanes(chsLanes, stride, stride, partial.chs.data());
        });
    ChsPartial reduced = treeReduceChs(partials);
    out.chs = std::move(reduced.chs);
    out.pairOps = reduced.pairOps;
    return out;
}

/**
 * In-place unnormalised Walsh–Hadamard transform of 2^n values, in a
 * fixed butterfly order.  Each radix-4 butterfly does the adds and
 * subtracts of two radix-2 stages (half and 2 half) in their order,
 * in half the passes over v; odd n ends with one radix-2 stage.  Only
 * adds and subtracts, so the output is the same on every build and
 * tier.
 */
template <typename T>
void
walshHadamard(std::vector<T> &v)
{
    const std::size_t size = v.size();
    std::size_t half = 1;
    for (; 4 * half <= size; half *= 4) {
        for (std::size_t block = 0; block < size; block += 4 * half) {
            T *p0 = v.data() + block;
            T *p1 = p0 + half;
            T *p2 = p1 + half;
            T *p3 = p2 + half;
            for (std::size_t j = 0; j < half; ++j) {
                const T s0 = p0[j] + p1[j];
                const T d0 = p0[j] - p1[j];
                const T s1 = p2[j] + p3[j];
                const T d1 = p2[j] - p3[j];
                p0[j] = s0 + s1;
                p1[j] = d0 + d1;
                p2[j] = s0 - s1;
                p3[j] = d0 - d1;
            }
        }
    }
    if (half < size) {
        for (std::size_t j = 0; j < half; ++j) {
            const T a = v[j];
            const T b = v[j + half];
            v[j] = a + b;
            v[j + half] = a - b;
        }
    }
}

/** Calls f(u, |u|) for u = 0 .. size - 1 in order. */
template <typename F>
void
forEachWeight(std::size_t size, F &&f)
{
    static constexpr auto kByteWeight = [] {
        std::array<int, 256> weight{};
        for (std::size_t b = 1; b < weight.size(); ++b)
            weight[b] = weight[b / 2] + static_cast<int>(b % 2);
        return weight;
    }();
    const std::size_t block = std::min<std::size_t>(size, 256);
    for (std::size_t high = 0; high < size; high += block) {
        const int base = std::popcount(high);
        for (std::size_t low = 0; low < block; ++low)
            f(high + low, base + kByteWeight[low]);
    }
}

/**
 * Krawtchouk polynomials K_d(w) = sum_j (-1)^j C(w, j) C(n - w, d - j)
 * for d = 0..dmax, w = 0..n, row-major by d: the sum of (-1)^(u.z)
 * over the C(n, d) words z of weight d, for any u of weight w.
 */
std::vector<std::int64_t>
krawtchouk(int n, int dmax)
{
    const auto width = static_cast<std::size_t>(n) + 1;
    std::vector<std::int64_t> k(static_cast<std::size_t>(dmax + 1) * width);
    for (int d = 0; d <= dmax; ++d) {
        for (int w = 0; w <= n; ++w) {
            std::int64_t sum = 0;
            for (int j = 0; j <= std::min(w, d); ++j) {
                const auto term = static_cast<std::int64_t>(
                    common::binomial(w, j) * common::binomial(n - w, d - j));
                sum += j % 2 == 0 ? term : -term;
            }
            k[static_cast<std::size_t>(d) * width +
              static_cast<std::size_t>(w)] = sum;
        }
    }
    return k;
}

/**
 * Transform-path Steps 1 and 3's L share.  Returns g(x) for the rows
 * above the least probable tie group L: the sum of W_d over the
 * outcomes of L at distance d = 1..dmax.  Writes CHS_0..dmax and the
 * weights.  Holds one int32 and one double buffer of 2^n entries.
 */
std::vector<double>
transformSteps(const SortedSupport &s, int n, std::size_t bins,
               WeightScheme scheme, std::vector<double> &chs,
               std::vector<double> &weights)
{
    const std::size_t size = std::size_t{1} << n;
    const std::size_t width = static_cast<std::size_t>(n) + 1;
    const std::vector<std::int64_t> k =
        krawtchouk(n, static_cast<int>(bins) - 1);
    std::vector<std::int32_t> ones(size, 0);
    std::vector<double> reals(size, 0.0);

    // Step 1: F = WHT(1_S) (exact), P = WHT(p), and the shell sums
    // T_w of F(u) P(u) and Q_w of F(u)^2 over |u| = w.
    for (std::size_t r = 0; r < s.outcomes.size(); ++r) {
        ones[s.outcomes[r]] = 1;
        reals[s.outcomes[r]] = s.probs[r];
    }
    walshHadamard(ones);
    walshHadamard(reals);
    std::vector<double> t(width, 0.0);
    std::vector<std::int64_t> q(width, 0);
    forEachWeight(size, [&](std::size_t u, int w) {
        t[static_cast<std::size_t>(w)] += ones[u] * reals[u];
        q[static_cast<std::size_t>(w)] +=
            static_cast<std::int64_t>(ones[u]) * ones[u];
    });
    // CHS_d = 2^-n sum_w K_d(w) T_w.  The same sum over Q_w is 2^n
    // times the number of ordered pairs at distance d, exact in int64
    // (sum_w Q_w = 2^n N by Parseval, |K_d(w)| <= C(n, d), so every
    // term is below 2^58): a distance no pair has gets CHS_d = 0, not
    // rounding residue.
    chs.assign(bins, 0.0);
    for (std::size_t d = 0; d < bins; ++d) {
        double sum = 0.0;
        std::int64_t pairs = 0;
        for (std::size_t w = 0; w < width; ++w) {
            sum += static_cast<double>(k[d * width + w]) * t[w];
            pairs += k[d * width + w] * q[w];
        }
        chs[d] = pairs == 0 ? 0.0 : std::ldexp(sum, -n);
    }
    weights = weightsFromChs(chs, n, scheme);

    // Step 3: g = 2^-n WHT(WHT(1_L) kappa(|u|)), with kappa(w) =
    // sum_{d=1..dmax} W_d K_d(w) the transform of the kernel
    // W_|z| [1 <= |z| <= dmax].
    std::vector<double> kappa(width, 0.0);
    for (std::size_t d = 1; d < bins; ++d) {
        for (std::size_t w = 0; w < width; ++w)
            kappa[w] += weights[d] * static_cast<double>(k[d * width + w]);
    }
    std::fill(ones.begin(), ones.end(), 0);
    for (std::size_t r = s.lastGroup; r < s.outcomes.size(); ++r)
        ones[s.outcomes[r]] = 1;
    walshHadamard(ones);
    forEachWeight(size, [&](std::size_t u, int w) {
        reals[u] = ones[u] * kappa[static_cast<std::size_t>(w)];
    });
    walshHadamard(reals);
    std::vector<double> g(s.lastGroup);
    for (std::size_t r = 0; r < s.lastGroup; ++r)
        g[r] = std::ldexp(reals[s.outcomes[r]], -n);
    return g;
}

/** reconstruct() on @p forced, or on the rule's path when unset. */
Distribution
reconstructOn(std::optional<HammerPath> forced, const Distribution &input,
              const HammerConfig &config, HammerStats *stats)
{
    require(input.support() > 0, "reconstruct: empty distribution");
    require(input.normalized(1e-6),
            "reconstruct: input distribution must be normalised");

    const int n = input.numBits();
    const int dmax = effectiveMaxDistance(input, config);
    const SortedSupport s(input);
    const std::size_t count = s.outcomes.size();
    const bool filter = config.filterLowerProbability;
    const HammerPath path = forced.value_or(
        detail::hammerPathFor(n, count, s.lastGroup, filter));
    const bool transform = path == HammerPath::Transform;
    require(!transform || (filter && n <= kTransformMaxBits),
            "reconstruct: the transform path needs the filter and at "
            "most 20 bits");

    // Bins cover every distance 0..n, so the kernel bins
    // unconditionally; distances past dmax land in bins Step 2
    // discards.  Step 3 keeps bins 0..dmax per histogram row.
    const auto stride = static_cast<std::size_t>(n) + 1;
    const auto bins = static_cast<std::size_t>(dmax) + 1;

    // Steps 1 and 2, and Step 3's histograms h_x.  The transform
    // path frees its scratch before the residual scan runs.
    std::vector<double> chs;
    std::vector<double> weights;
    std::vector<double> lowShare; // g(x), rows above L (transform)
    ScanOutput scanned;
    if (transform) {
        lowShare = transformSteps(s, n, bins, config.weightScheme, chs,
                                  weights);
        scanned = scanPairs(s, s.lastGroup, false, true, stride, bins,
                            config.threads);
    } else {
        scanned = scanPairs(s, count, true, filter, stride, bins,
                            config.threads);
        chs = std::move(scanned.chs);
        chs.resize(bins); // drop spill bins
        weights = weightsFromChs(chs, n, config.weightScheme);
    }

    // Step 3: S(x) = P(x) + sum_d W_d h_x[d] (+ p_L g(x) on the
    // transform path), written back in outcome order.
    const std::size_t hRows = scanned.hist.size() / bins;
    const double lowProb = s.probs.back();
    std::vector<Entry> rescored(count);
    for (std::size_t k = 0; k < count; ++k) {
        const double px = s.probs[k];
        double score = px;
        if (k < hRows) {
            for (std::size_t d = 0; d < bins; ++d)
                score += weights[d] * scanned.hist[k * bins + d];
        }
        if (k < lowShare.size())
            score += lowProb * lowShare[k];
        rescored[s.index[k]] = {s.outcomes[k],
                                config.scoreCombine ==
                                        ScoreCombine::Multiplicative
                                    ? score * px
                                    : score};
    }

    Distribution output = Distribution::fromSorted(n, std::move(rescored));
    output.normalize();

    if (stats) {
        stats->uniqueOutcomes = count;
        stats->maxDistance = dmax;
        stats->aggregateChs = std::move(chs);
        stats->weights = weights;
        stats->pairOperations = scanned.pairOps;
        stats->path = path;
    }
    return output;
}

} // namespace

const char *
hammerPathName(HammerPath path)
{
    return path == HammerPath::Transform ? "transform" : "scan";
}

namespace detail {

HammerPath
hammerPathFor(int num_bits, std::size_t count, std::size_t upper_rows,
              bool filter)
{
    // The width cap comes first, so 2^n below is at most 2^20.
    if (!filter || count - upper_rows < 2 || num_bits > kTransformMaxBits)
        return HammerPath::Scan;
    const double entries = std::ldexp(1.0, num_bits);
    const auto outcomes = static_cast<double>(count);
    const auto upper = static_cast<double>(upper_rows);
    if (entries > kTransformMaxEntriesPerOutcome * outcomes)
        return HammerPath::Scan;
    return kTransformCost * num_bits * entries <
                   outcomes * outcomes - upper * upper
               ? HammerPath::Transform
               : HammerPath::Scan;
}

Distribution
reconstructOnPath(HammerPath path, const Distribution &input,
                  const HammerConfig &config, HammerStats *stats)
{
    return reconstructOn(path, input, config, stats);
}

} // namespace detail

Distribution
reconstruct(const Distribution &input, const HammerConfig &config,
            HammerStats *stats)
{
    return reconstructOn(std::nullopt, input, config, stats);
}

Distribution
reconstructIterative(const Distribution &input, int iterations,
                     const HammerConfig &config)
{
    require(iterations >= 1,
            "reconstructIterative: need at least one pass");
    Distribution current = reconstruct(input, config);
    for (int pass = 1; pass < iterations; ++pass)
        current = reconstruct(current, config);
    return current;
}

common::KernelTier
hammerScanTier()
{
    return detail::pairScanTier(common::activeTier());
}

} // namespace hammer::core
