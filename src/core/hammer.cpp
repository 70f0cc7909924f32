#include "core/hammer.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
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
 * produced which partial.
 */
ChsPartial
treeReduceChs(std::vector<ChsPartial> &parts)
{
    require(!parts.empty(), "treeReduceChs: no parts");
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

Distribution
reconstruct(const Distribution &input, const HammerConfig &config,
            HammerStats *stats)
{
    require(input.support() > 0, "reconstruct: empty distribution");
    require(input.normalized(1e-6),
            "reconstruct: input distribution must be normalised");

    const int n = input.numBits();
    const int dmax = effectiveMaxDistance(input, config);
    const SortedSupport s(input);
    const std::size_t count = s.outcomes.size();
    const bool filter = config.filterLowerProbability;
    const detail::PairScanFn scan =
        detail::pairScanForTier(common::activeTier());

    // Bins cover every distance 0..n, so the kernel bins
    // unconditionally; distances past dmax land in bins Step 2
    // discards.  Step 3 keeps bins 0..dmax per histogram row.
    const auto stride = static_cast<std::size_t>(n) + 1;
    const auto bins = static_cast<std::size_t>(dmax) + 1;
    // With the filter, the least probable tie group has no strictly
    // less probable neighbour, so its rows need no histogram.
    const std::size_t hRows = filter ? s.lastGroup : count;
    std::vector<double> hist(hRows * bins, 0.0);

    // Steps 1 and 3 in one scan of fixed-size row chunks.  Row i
    // visits each j > i once for Step 1; its Step-3 neighbours are
    // the rows past its tie group (every j != i without the filter).
    const std::size_t chunks = ThreadPool::chunkCount(count, kScanChunk);
    std::vector<ChsPartial> partials(chunks);
    ThreadPool::runChunked(
        config.threads, count, kScanChunk,
        [&](std::size_t c, std::size_t begin, std::size_t end, int) {
            ChsPartial &partial = partials[c];
            partial.chs.assign(stride, 0.0);
            std::vector<double> chsLanes(detail::kScanLanes * stride, 0.0);
            std::vector<double> hLanes(detail::kScanLanes * stride);
            for (std::size_t i = begin; i < end; ++i) {
                const Bits x = s.outcomes[i];
                const double px = s.probs[i];
                partial.chs[0] += px;
                double *h = nullptr;
                if (i < hRows) {
                    std::fill(hLanes.begin(), hLanes.end(), 0.0);
                    h = hLanes.data();
                }
                const std::size_t split = filter ? s.groupEnd[i] : i + 1;
                if (!filter)
                    scan(x, px, s.outcomes.data(), s.probs.data(), 0, i,
                         stride, nullptr, h);
                scan(x, px, s.outcomes.data(), s.probs.data(), i + 1,
                     split, stride, chsLanes.data(), nullptr);
                scan(x, px, s.outcomes.data(), s.probs.data(), split,
                     count, stride, chsLanes.data(), h);
                if (h != nullptr)
                    foldLanes(hLanes, stride, bins, &hist[i * bins]);
                partial.pairOps += filter ? count - 1 - i : count - 1;
            }
            foldLanes(chsLanes, stride, stride, partial.chs.data());
        });
    ChsPartial reduced = treeReduceChs(partials);
    std::vector<double> chs = std::move(reduced.chs);
    chs.resize(bins); // drop spill bins

    // Step 2: per-distance weights.
    const std::vector<double> weights =
        weightsFromChs(chs, n, config.weightScheme);

    // Step 3: S(x) = P(x) + sum_d W_d h_x[d], written back in
    // outcome order.
    std::vector<Entry> rescored(count);
    for (std::size_t k = 0; k < count; ++k) {
        const double px = s.probs[k];
        double score = px;
        if (k < hRows) {
            for (std::size_t d = 0; d < bins; ++d)
                score += weights[d] * hist[k * bins + d];
        }
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
        stats->pairOperations = reduced.pairOps;
    }
    return output;
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
