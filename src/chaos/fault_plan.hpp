/**
 * @file
 * hammer::chaos — deterministic fault-injection harness.
 *
 * A FaultPlan is the concrete common::FaultInjector the chaos CI
 * suite layers over ExecutionService and ShardRouter: every decision
 * is a pure function of (seed, site, key), derived through
 * common::Rng::fork, so a whole chaos run — which jobs lose their
 * worker, which cache entries are poisoned, which coalescing
 * registrations are dropped — replays bit-for-bit from a single
 * uint64 seed no matter how the OS schedules the worker threads.
 *
 * The harness also generates the hostile half of the campaign:
 * hostileSpecLines() produces a deterministic flood of malformed,
 * truncated and boundary-abusing serving-protocol lines used to
 * prove api::parseSpecLine degrades into typed errors, never a crash.
 *
 * Conceptual template: ASPIS-style redundancy-plus-compare at the
 * boundary (PAPERS.md) — the service recomputes or verifies instead
 * of trusting any single copy, and this module is the adversary that
 * proves it.
 */

#ifndef HAMMER_CHAOS_FAULT_PLAN_HPP
#define HAMMER_CHAOS_FAULT_PLAN_HPP

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/fault_injection.hpp"

namespace hammer::chaos {

/** Per-fault-class injection rates and magnitudes of one FaultPlan. */
struct FaultPlanOptions
{
    /** P(worker death) per service job attempt fault point. */
    double workerKillRate = 0.0;
    /** P(stall) per service job attempt fault point. */
    double workerStallRate = 0.0;

    /** P(poison) per service cache insert (result or exec outcome). */
    double cachePoisonRate = 0.0;

    /** P(drop) per coalescing registration. */
    double coalesceDropRate = 0.0;
    /** P(delay) per coalescing registration. */
    double coalesceDelayRate = 0.0;

    /** P(connection death) per router->shard job send. */
    double shardSendKillRate = 0.0;
    /** P(stall) per router->shard job send. */
    double shardSendStallRate = 0.0;

    /** P(lost response) per shard->router result frame. */
    double shardRecvKillRate = 0.0;
    /** P(stall) per shard->router result frame. */
    double shardRecvStallRate = 0.0;

    /** P(denied probe) per half-open breaker probe admission. */
    double breakerProbeDenyRate = 0.0;
    /** P(stall) per breaker probe admission. */
    double breakerProbeStallRate = 0.0;

    /** P(forced shed) per service admission decision. */
    double shedForceRate = 0.0;

    /** Stall/delay duration handed back with those actions. */
    int stallMillis = 5;
    int delayMillis = 1;
};

/** Injection counters, by action kind (decisions = site visits). */
struct FaultPlanStats
{
    std::uint64_t decisions = 0;
    std::uint64_t kills = 0;
    std::uint64_t stalls = 0;
    std::uint64_t poisons = 0;
    std::uint64_t drops = 0;
    std::uint64_t delays = 0;

    std::uint64_t injected() const
    {
        return kills + stalls + poisons + drops + delays;
    }
};

/**
 * Seeded, replayable fault oracle.
 *
 * at(site, key) derives a child RNG with Rng::fork(mix(site, key))
 * and draws the fault classes for that site in a fixed order, so the
 * decision depends only on (seed, site, key) — never on timing,
 * thread count or visit order.  Thread-safe; the stats counters are
 * the only mutable state.
 */
class FaultPlan final : public common::FaultInjector
{
  public:
    explicit FaultPlan(std::uint64_t seed,
                       FaultPlanOptions options = {});

    common::FaultAction at(common::FaultSite site,
                           std::uint64_t key) override;

    /** The decision at (site, key) without counting it (replay/tests). */
    common::FaultAction peek(common::FaultSite site,
                             std::uint64_t key) const;

    std::uint64_t seed() const { return seed_; }
    const FaultPlanOptions &options() const { return options_; }

    /** Injection counter snapshot. */
    FaultPlanStats stats() const;

  private:
    const std::uint64_t seed_;
    const FaultPlanOptions options_;

    mutable std::mutex mutex_;
    FaultPlanStats stats_;
};

/**
 * Deterministic flood of hostile serving-protocol lines: truncated
 * and malformed JSON, bad escapes and lone surrogate halves, numbers
 * outside every budget's range, duplicate and unknown keys, absurd
 * nesting, binary garbage, and a sprinkling of valid lines so a
 * parser that rejects everything also fails the test that consumes
 * this.  Pure function of (seed, count): the same seed always yields
 * the same flood, so a failure reproduces from its seed alone.
 */
std::vector<std::string> hostileSpecLines(std::uint64_t seed,
                                          std::size_t count);

} // namespace hammer::chaos

#endif // HAMMER_CHAOS_FAULT_PLAN_HPP
