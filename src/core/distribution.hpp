/**
 * @file
 * Sparse measurement-outcome distribution.
 *
 * This is the object every part of the pipeline exchanges: the noisy
 * samplers produce one, HAMMER consumes and produces one, and the
 * metrics read them.  Outcomes are stored sorted by bit pattern so
 * iteration order (and therefore every experiment) is deterministic.
 *
 * Both Distribution and CountAccumulator are backed by flat sorted
 * vectors rather than node-based maps: the hot paths (per-shot
 * histogramming, HAMMER's O(N^2) pair loops, tree reductions) walk
 * the support linearly, so contiguous storage turns every traversal
 * into a streaming scan with no pointer chasing or per-node
 * allocation.
 */

#ifndef HAMMER_CORE_DISTRIBUTION_HPP
#define HAMMER_CORE_DISTRIBUTION_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bitops.hpp"
#include "common/logging.hpp"

namespace hammer::core {

/** One (outcome, probability) entry. */
struct Entry
{
    common::Bits outcome;
    double probability;
};

/** One (outcome, shot count) entry of a CountAccumulator. */
struct CountEntry
{
    common::Bits outcome;
    std::uint64_t count;
};

/**
 * Stable-sort @p entries by outcome and sum duplicates, returning a
 * strictly-ascending run ready for Distribution::fromSorted.
 *
 * The stable sort keeps each outcome's contributions in their
 * original append order, so the folded sums are bit-identical to a
 * sequential accumulation — the primitive behind every flat
 * "gather then collapse" path (channel folding, ensemble merging).
 */
std::vector<Entry> collapseEntries(std::vector<Entry> entries);

/**
 * Sparse probability distribution over n-bit outcomes.
 *
 * Probabilities are non-negative; most factory functions normalise,
 * and normalized() can be checked explicitly.  The number of distinct
 * outcomes N (not 2^n) governs HAMMER's O(N^2) runtime, mirroring the
 * paper's complexity analysis (Section 6.6).
 */
class Distribution
{
  public:
    /** Empty distribution over n-bit outcomes. */
    explicit Distribution(int num_bits);

    /**
     * Build from integer shot counts (normalises by total shots).
     *
     * @param num_bits Output width.
     * @param counts (outcome, shot count) pairs in any order;
     *        duplicate outcomes are summed.
     */
    static Distribution fromCounts(
        int num_bits,
        const std::vector<std::pair<common::Bits, std::uint64_t>>
            &counts);

    /**
     * Build from a list of sampled shots (sort + run-length collapse;
     * no intermediate map).
     */
    static Distribution fromShots(int num_bits,
                                  const std::vector<common::Bits> &shots);

    /**
     * Build from a dense probability vector of length 2^num_bits,
     * dropping entries below @p threshold.
     */
    static Distribution fromDense(int num_bits,
                                  const std::vector<double> &probs,
                                  double threshold = 1e-12);

    /**
     * Build by evaluating @p prob(i) for every outcome i in
     * [0, 2^num_bits) — fromDense semantics (same validation, same
     * threshold, no normalisation) without ever materialising the
     * dense probability vector.  The statevector paths use this to
     * fold |amp|^2 straight from the SoA re/im planes into the
     * sparse build.
     */
    template <typename Fn>
    static Distribution fromProbabilityFn(int num_bits, Fn &&prob,
                                          double threshold = 1e-12)
    {
        common::require(num_bits <= 30,
                        "Distribution::fromProbabilityFn: width too "
                        "large");
        Distribution dist(num_bits);
        const std::size_t dim = std::size_t{1} << num_bits;
        for (std::size_t i = 0; i < dim; ++i) {
            const double p = prob(i);
            common::require(p >= -1e-12,
                            "Distribution::fromProbabilityFn: "
                            "negative probability");
            if (p > threshold)
                dist.entries_.push_back({i, p});
        }
        return dist;
    }

    /**
     * Adopt an already-sorted entry vector without per-entry
     * insertion — the zero-copy exit of the flat pipelines (HAMMER's
     * rescoring loop, accumulator normalisation, channel folding).
     *
     * @pre entries sorted strictly ascending by outcome, all
     *      probabilities >= 0.
     */
    static Distribution fromSorted(int num_bits,
                                   std::vector<Entry> entries);

    int numBits() const { return numBits_; }

    /** Number of distinct outcomes with non-zero probability. */
    std::size_t support() const { return entries_.size(); }

    /** Entries sorted ascending by outcome bit pattern. */
    const std::vector<Entry> &entries() const { return entries_; }

    /** Probability of @p outcome (0 when absent). */
    double probability(common::Bits outcome) const;

    /** Insert or overwrite one entry. @pre probability >= 0. */
    void set(common::Bits outcome, double probability);

    /** Add probability mass to one outcome. */
    void add(common::Bits outcome, double probability);

    /** Sum of all probabilities. */
    double totalMass() const;

    /** True when totalMass() is within @p tol of 1. */
    bool normalized(double tol = 1e-9) const;

    /** Scale so totalMass() == 1. @pre totalMass() > 0. */
    void normalize();

    /** Outcome with the largest probability. @pre non-empty. */
    Entry topOutcome() const;

    /** Entries sorted by descending probability (ties: ascending bits). */
    std::vector<Entry> sortedByProbability() const;

    /**
     * Render the @p max_rows most probable entries as
     * "bitstring  probability" lines (debugging / bench output).
     */
    std::string toString(int max_rows = 16) const;

  private:
    int numBits_;
    std::vector<Entry> entries_; // sorted by outcome
};

/**
 * Mergeable shot-count accumulator.
 *
 * The building block of the parallel sampling engine: every worker
 * thread histograms its own shots into a private CountAccumulator
 * (no sharing, no atomics), and the per-worker partials are combined
 * afterwards with treeReduce().  Counts are exact 64-bit integers,
 * so the merged result is bit-identical no matter how the shots were
 * partitioned across workers — the property the sample()
 * determinism tests assert.
 *
 * Storage is flat: add() is an O(1) append into a pending buffer, and
 * the buffer is collapsed (sort + run-length sum) into a sorted
 * vector lazily — when it grows past a threshold, when two
 * accumulators merge (a linear merge-join), or when the counts are
 * read.  A worker recording S shots therefore costs O(S + U log U)
 * for U unique outcomes, with no per-shot tree rebalancing or node
 * allocation.
 *
 * Because of the lazy collapse, even the const accessors (counts(),
 * count(), toDistribution()) may reorganise the internal buffers:
 * concurrent access to one instance is not safe, const or not.  The
 * engine's usage pattern — each worker fills a private accumulator,
 * reads happen only after the reduction — never shares an instance
 * between threads.
 */
class CountAccumulator
{
  public:
    /** Record @p count observations of @p outcome. */
    void add(common::Bits outcome, std::uint64_t count = 1);

    /** Pre-size the pending buffer for @p shots add() calls. */
    void reserve(std::size_t shots);

    /** Fold @p other's counts into this accumulator. */
    void merge(const CountAccumulator &other);

    /** Total number of recorded shots. */
    std::uint64_t totalShots() const { return totalShots_; }

    /** True when no shots have been recorded. */
    bool empty() const { return totalShots_ == 0; }

    /** (outcome, count) entries, sorted ascending by outcome. */
    const std::vector<CountEntry> &counts() const;

    /** Count recorded for @p outcome (0 when absent). */
    std::uint64_t count(common::Bits outcome) const;

    /** Normalise into a Distribution. @pre totalShots() > 0. */
    Distribution toDistribution(int num_bits) const;

    /**
     * Combine per-worker partials with a pairwise reduction tree
     * (round k merges partials 2^k apart), leaving the result in
     * parts[0].  Atomic-free: each merge touches two accumulators no
     * other merge of the same round touches, and each merge is one
     * linear merge-join of two sorted runs.
     *
     * @pre parts is non-empty.
     */
    static CountAccumulator treeReduce(
        std::vector<CountAccumulator> &parts);

  private:
    /** Sort + run-length collapse pending_ into sorted_. */
    void collapse() const;

    // Lazily collapsed: counts() is logically const, so the buffers
    // are mutable and collapse() keeps the pair consistent.
    mutable std::vector<CountEntry> sorted_;  // sorted by outcome
    mutable std::vector<CountEntry> pending_; // unsorted appends
    std::uint64_t totalShots_ = 0;
};

} // namespace hammer::core

#endif // HAMMER_CORE_DISTRIBUTION_HPP
