/**
 * @file
 * Calibrated analytical cost model for execution-plan selection.
 *
 * The registry offers several interchangeable execution plans
 * (trajectory replay, analytic channel, exact density matrix), and
 * callers historically picked one by hand.  This module follows the
 * autoscheduling recipe of Ahrens & Kjolstad (PAPERS.md): a *pure*
 * cost function over spec-derived features, a calibration
 * table of fitted per-kernel-class coefficients, deterministic
 * candidate enumeration and ranking, and a fitter that re-derives the
 * coefficients from measured bench telemetry — predict, rank, then
 * verify against wall-clock.
 *
 * Everything here is deterministic: the same features and table
 * always produce the same costs and the same ranking, so the `auto`
 * backend (api layer) and the service admission controller inherit
 * the repo-wide replayability contract.
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

    /**
     * Active kernel tier's vector width in doubles (1/2/4).  The
     * calibration table is normalised to the widest tier; narrower
     * tiers scale the per-row sim work up proportionally.
     */
    int kernelLanes = 4;

    std::size_t rows() const
    {
        return std::size_t{1} << qubits;
    }
};

/**
 * Extract features from a concrete circuit + backend parameters.
 * Pure: compiles the circuit (fuse1q on) and folds the noise model
 * analytically; no RNG, no global state except the kernel tier.
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
 * Coefficient groups a predicted cost decomposes into.  The fitter
 * solves for one scale per group, so each group must correspond to
 * exactly one table coefficient (kernel-class row costs are the
 * "per-kernel-class coefficients" of the ROADMAP item).
 */
enum class CostGroup
{
    Dense1q = 0, ///< dense1qRowNs
    Diag,        ///< diagRowNs
    Perm,        ///< permRowNs
    Twoq,        ///< twoqRowNs
    Dispatch,    ///< dispatchOverheadRows
    Injection,   ///< injectionWeight
    Checkpoint,  ///< checkpointRowNs
    Shots,       ///< shotNs
    Flips,       ///< channelFlipNs
    Density,     ///< densityRowNs
    Overhead,    ///< planOverheadNs
};

inline constexpr std::size_t kCostGroups = 11;

const char *costGroupName(CostGroup group);

/**
 * Fitted coefficients.  Defaults are the compiled-in table (hand
 * measurements on the reference AVX2 CI host), so nothing new is
 * required at runtime; `hammer_calibrate` re-fits them from
 * BENCH_plan.json telemetry and the api layer can load the result
 * from calibration.json.  Every field is a model coefficient: none
 * of them configures a backend.
 */
struct CalibrationTable
{
    // Per-amplitude-row kernel costs, nanoseconds, normalised to the
    // widest (4-lane) kernel tier.
    double dense1qRowNs = 1.3;
    double diagRowNs = 0.8;
    double permRowNs = 0.7;
    double twoqRowNs = 1.6;

    /** Fixed per-gate dispatch cost in dense1q-row equivalents. */
    double dispatchOverheadRows = 512.0;
    /** One in-place Pauli injection, in permutation-row passes. */
    double injectionWeight = 4.0 / 3.0;

    /** Checkpoint store/copy cost per amplitude row, ns. */
    double checkpointRowNs = 0.9;
    /** Per-shot sampling cost (CDF walk + readout + histogram), ns. */
    double shotNs = 55.0;
    /** Channel backend: per shot-gate analytic flip draw, ns. */
    double channelFlipNs = 2.6;
    /** Exact backend: per density-matrix element per gate, ns. */
    double densityRowNs = 2.2;
    /** Fixed per-plan overhead (compile, engine set-up), ns. */
    double planOverheadNs = 60000.0;

    int version = 1;
};

/** The compiled-in default table. */
CalibrationTable defaultCalibrationTable();

/**
 * Process-wide table the `auto` backend and admission control read.
 * Starts as defaultCalibrationTable(); setActiveCalibration installs
 * a loaded or re-fitted table (tests use it to force plan choices).
 */
const CalibrationTable &activeCalibration();
void setActiveCalibration(const CalibrationTable &table);

/** Predicted cost with its per-coefficient-group breakdown. */
struct PlanCost
{
    double seconds = 0.0;
    std::array<double, kCostGroups> groups{}; ///< Seconds per group.
};

/** One candidate execution plan. */
struct PlanChoice
{
    std::string backend = "channel"; ///< Registry backend name.
};

/**
 * The pure cost function: predicted wall-clock of executing a spec
 * with @p features under @p choice, per @p table.  Monotone by
 * construction — increasing shots, trajectories, any gate count or
 * the qubit count never predicts cheaper (all coefficients are
 * non-negative and every term is non-decreasing in every feature).
 */
PlanCost estimateCost(const PlanFeatures &features,
                      const PlanChoice &choice,
                      const CalibrationTable &table);

struct RankedPlan
{
    PlanChoice choice;
    PlanCost cost;
};

/**
 * Enumerate one candidate plan per backend (channel; trajectory;
 * exact when the density matrix fits) and return them
 * cheapest-first.  Ties break on the backend name, so the ranking is
 * a pure function of (features, table).
 */
std::vector<RankedPlan> rankPlans(const PlanFeatures &features,
                                  const CalibrationTable &table);

// ---------------------------------------------------------------------------
// Calibration fitting
// ---------------------------------------------------------------------------

/** One telemetry observation: a plan that ran and what it cost. */
struct CalibrationSample
{
    PlanFeatures features;
    PlanChoice choice;
    double measuredSeconds = 0.0;
};

/**
 * Least-squares fitter.  Each sample's prediction under the seed
 * table decomposes into per-group contributions; the fitter solves
 * the ridge-regularised normal equations for one non-negative scale
 * per group (shrinking toward 1 when a group is unobserved) and
 * returns the seed table with its coefficients rescaled.
 */
class Calibrator
{
  public:
    void addSample(const CalibrationSample &sample);
    std::size_t sampleCount() const { return samples_.size(); }

    CalibrationTable
    fit(const CalibrationTable &seed = defaultCalibrationTable()) const;

  private:
    std::vector<CalibrationSample> samples_;
};

} // namespace hammer::plan

#endif // HAMMER_PLAN_COST_MODEL_HPP
