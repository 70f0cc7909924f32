/**
 * @file
 * Analytical cost model for execution-plan selection.
 *
 * The backend table offers several interchangeable execution plans
 * (trajectory replay, analytic channel, exact density matrix), and
 * callers historically picked one by hand.  This module follows the
 * autoscheduling recipe of Ahrens & Kjolstad (PAPERS.md): a *pure*
 * cost function over spec-derived features with one fixed,
 * compiled-in table of per-kernel-class coefficients, and
 * deterministic candidate enumeration and ranking.
 *
 * Everything here is deterministic: the same features always produce
 * the same costs and the same ranking, on every host and kernel tier,
 * so the `auto` backend (api layer) and the service's deadline
 * shedding inherit the repo-wide replayability contract.
 */

#ifndef HAMMER_PLAN_COST_MODEL_HPP
#define HAMMER_PLAN_COST_MODEL_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "noise/noise_model.hpp"
#include "sim/circuit.hpp"

namespace hammer::plan {

/**
 * Spec-derived feature vector the cost function consumes.
 *
 * Gate counts are split by post-fusion kernel class (the classes
 * sim::CompiledCircuit dispatches on) because their per-row costs
 * differ by multiples; sourceGates/source2q describe the unfused
 * stream, which is what trajectory replay executes and where error
 * events land.
 */
struct PlanFeatures
{
    int qubits = 0;

    // Post-fusion op counts by kernel class.
    std::uint64_t dense1q = 0; ///< General 2x2 matrices (Mat1q).
    std::uint64_t diag = 0;    ///< Diagonal + phase kernels (Diag, Phase, CZ).
    std::uint64_t perm = 0;    ///< Permutation kernels (X, Y, Swap).
    std::uint64_t twoq = 0;    ///< Controlled-mixing kernels (CX).

    std::uint64_t sourceGates = 0; ///< Pre-fusion gate count.
    std::uint64_t source2q = 0;    ///< Two-qubit subset of sourceGates.

    /** Expected error events per trajectory (sum of per-gate rates). */
    double expectedErrors = 0.0;
    /** P(no error fires on a trajectory) — the replay fast path. */
    double zeroErrorFraction = 1.0;

    int shots = 0;
    int trajectories = 0;

    std::size_t rows() const
    {
        return std::size_t{1} << qubits;
    }
};

/**
 * Extract features from a concrete circuit + backend parameters.
 * Pure: compiles the circuit (fuse1q on) and folds the noise model
 * analytically; no RNG, no global state.
 */
PlanFeatures extractFeatures(const sim::Circuit &circuit,
                             const noise::NoiseModel &model, int shots,
                             int trajectories);

/**
 * Approximate features from workload *shape* only (qubit count and
 * rough 1q/2q gate totals) — the cheap estimate service admission
 * uses before a workload is ever built.
 */
PlanFeatures approximateFeatures(int qubits, std::uint64_t gates1q,
                                 std::uint64_t gates2q,
                                 const noise::NoiseModel &model,
                                 int shots, int trajectories);

/**
 * Coefficient groups a predicted cost decomposes into, one per
 * coefficient of the model's table (kernel-class row costs are the
 * per-kernel-class coefficients); `--explain-plan` prints the two
 * largest of each plan.
 */
enum class CostGroup
{
    Dense1q = 0, ///< Mat1q kernel rows.
    Diag,        ///< Diagonal, phase and CZ kernel rows.
    Perm,        ///< Permutation kernel rows.
    Twoq,        ///< CX kernel rows.
    Dispatch,    ///< Fixed per-gate dispatch.
    Injection,   ///< Trajectory Pauli injections.
    Checkpoint,  ///< Trajectory checkpoint stores and copies.
    Shots,       ///< Per-shot sampling.
    Flips,       ///< Channel per-shot-gate flip draws.
    Density,     ///< Exact density-matrix evolution.
    Overhead,    ///< Fixed per-plan set-up.
};

inline constexpr std::size_t kCostGroups = 11;

const char *costGroupName(CostGroup group);

/** Predicted cost with its per-coefficient-group breakdown. */
struct PlanCost
{
    double seconds = 0.0;
    std::array<double, kCostGroups> groups{}; ///< Seconds per group.
};

/** One candidate execution plan. */
struct PlanChoice
{
    std::string backend = "channel"; ///< api::makeBackend name.
};

/**
 * The pure cost function: predicted wall-clock of executing a spec
 * with @p features under @p choice.  Monotone by construction —
 * increasing shots, trajectories, any gate count or the qubit count
 * never predicts cheaper (all coefficients are positive and every
 * term is non-decreasing in every feature).
 */
PlanCost estimateCost(const PlanFeatures &features,
                      const PlanChoice &choice);

struct RankedPlan
{
    PlanChoice choice;
    PlanCost cost;
};

/**
 * Enumerate one candidate plan per backend (channel; trajectory;
 * exact when the density matrix fits) and return them
 * cheapest-first.  Ties break on the backend name, so the ranking is
 * a pure function of the features.
 */
std::vector<RankedPlan> rankPlans(const PlanFeatures &features);

} // namespace hammer::plan

#endif // HAMMER_PLAN_COST_MODEL_HPP
