/**
 * @file
 * Hamming Reconstruction (HAMMER) — the paper's contribution.
 *
 * Implements Algorithm 1 (Appendix A) exactly, plus the configuration
 * knobs needed for the ablation studies in DESIGN.md: neighbourhood
 * radius, the filter function pi, the per-distance weight scheme, and
 * the score-combination rule.
 */

#ifndef HAMMER_CORE_HAMMER_HPP
#define HAMMER_CORE_HAMMER_HPP

#include <cstdint>
#include <vector>

#include "common/kernel_tier.hpp"
#include "core/distribution.hpp"

namespace hammer::core {

/** How per-distance weights W_d are derived. */
enum class WeightScheme
{
    /** W_d = 1 / aggregateCHS_d — the paper's inverted average CHS. */
    InverseChs,
    /** W_d = 1 for every distance (ablation). */
    Uniform,
    /** W_d = 1 / C(n, d) — bin-size normalisation only (ablation). */
    InverseBinomial,
};

/** How the neighbourhood score combines with the input probability. */
enum class ScoreCombine
{
    /** P_out(x) = score(x) * P_in(x) — Algorithm 1 line 22. */
    Multiplicative,
    /** P_out(x) = score(x) (ablation). */
    Additive,
};

/** Tunable parameters of the reconstruction. */
struct HammerConfig
{
    /**
     * Largest Hamming distance whose neighbours contribute; -1 means
     * the paper's default floor((n - 1) / 2) (the "d < n/2" test).
     */
    int maxDistance = -1;

    /**
     * Enable the filter function pi: only neighbours with *lower*
     * probability than x contribute to x's score (Section 4.4).
     */
    bool filterLowerProbability = true;

    /** Per-distance weight scheme. */
    WeightScheme weightScheme = WeightScheme::InverseChs;

    /** Score combination rule. */
    ScoreCombine scoreCombine = ScoreCombine::Multiplicative;

    /**
     * Worker threads for the pair scan (on the transform path, the
     * residual scan; the transforms run on the calling thread); 0
     * selects common::ThreadPool::defaultThreadCount().  The sorted
     * support is partitioned into fixed-size row chunks whose partial
     * CHS vectors are combined with a deterministic reduction tree, so
     * the output is bit-identical for every thread count, including
     * 1.
     */
    int threads = 0;
};

/** How reconstruct() computed Steps 1 and 3 (see reconstruct()). */
enum class HammerPath
{
    /** One pair scan over the whole support. */
    Scan,
    /** Walsh–Hadamard transforms plus a residual pair scan. */
    Transform,
};

/** "scan" or "transform". */
const char *hammerPathName(HammerPath path);

/** Observability data captured during a reconstruction. */
struct HammerStats
{
    std::size_t uniqueOutcomes = 0;   ///< N.
    int maxDistance = 0;              ///< Effective neighbourhood bound.
    std::vector<double> aggregateChs; ///< Step-1 aggregate CHS.
    std::vector<double> weights;      ///< Step-2 weights W_d.
    /**
     * Pair distances the scan computed: N(N-1)/2 (one per unordered
     * pair), or N(N-1) with the filter off.  On the transform path,
     * only the residual scan's pairs: each row above the least
     * probable tie group against the less probable rows above it.
     */
    std::uint64_t pairOperations = 0;
    /** The path that ran. */
    HammerPath path = HammerPath::Scan;
};

/**
 * Run Hamming Reconstruction on a measured distribution.
 *
 * Scan path: Steps 1 and 3 of Algorithm 1 share one scan over the
 * unordered pairs of the support sorted by probability (descending,
 * ties by outcome).  Each pair's distance d adds P(x) + P(y) to the
 * Step-1 CHS bin d and, when y is less probable than x (it lies past
 * x's tie group), P(y) to x's per-distance histogram h_x; after
 * Step 2 the score is S(x) = P(x) + sum_d W_d h_x[d], with no second
 * scan.  The scan kernel is dispatched on common::activeTier().
 *
 * Transform path (filter on only): with L the least probable tie
 * group (probability p_L) and M the rows above it, Step 1 is
 * CHS_d = 2^-n sum_w K_d(w) T_w, where T_w sums F(u) P(u) over
 * |u| = w, F = WHT(1_S) and P = WHT(p) are the Walsh–Hadamard
 * transforms of the support's indicator and of its probabilities, and
 * K_d(w) is the Krawtchouk polynomial.
 * Step 3 adds p_L g(x) to every row above L, with
 * g = 2^-n WHT(WHT(1_L) kappa(|u|)) and
 * kappa(w) = sum_{d=1..dmax} W_d K_d(w); the scan then supplies only
 * the histograms among the M rows.  The transforms take 12 * 2^n
 * bytes of scratch and run on the calling thread.  The path is a
 * fixed function of (n, N, M, filter): the transform when L holds at
 * least two outcomes, n <= 20, 2^n <= 64 N and its cost beats the
 * N^2 - M^2 pairs it saves.  Both paths agree with Algorithm 1 to
 * rounding, and each gives bit-identical output for every kernel
 * tier and thread count.
 *
 * @param input Noisy (normalised) measurement distribution.
 * @param config Algorithm parameters (defaults = the paper).
 * @param stats Optional out-param for observability counters.
 * @return Reconstructed, normalised distribution over the same
 *         support.
 */
Distribution reconstruct(const Distribution &input,
                         const HammerConfig &config = {},
                         HammerStats *stats = nullptr);

/**
 * Apply the reconstruction repeatedly (an extension beyond the
 * paper: each pass sharpens the histogram further, at the risk of
 * over-concentration — the ablation bench quantifies the trade-off).
 *
 * @param input Noisy (normalised) measurement distribution.
 * @param iterations Number of passes, >= 1.
 * @param config Algorithm parameters applied on every pass.
 */
Distribution reconstructIterative(const Distribution &input,
                                  int iterations,
                                  const HammerConfig &config = {});

/**
 * ISA tier of the pair-scan kernel reconstruct() dispatches to under
 * common::activeTier(): avx2 (hardware POPCNT) or scalar.
 */
common::KernelTier hammerScanTier();

/**
 * The per-distance weights HAMMER would use for @p input — Step 2 in
 * isolation, exposed for the Fig. 7 walkthrough and tests.
 */
std::vector<double> hammerWeights(const Distribution &input,
                                  const HammerConfig &config = {});

/**
 * Neighbourhood score S(x) of a single outcome under @p config
 * (Eq. 2), exposed for the Fig. 7 walkthrough and tests.  The score
 * includes the seed term P(x), matching Algorithm 1 line 17.
 */
double neighborhoodScore(const Distribution &input, common::Bits x,
                         const HammerConfig &config = {});

} // namespace hammer::core

#endif // HAMMER_CORE_HAMMER_HPP
