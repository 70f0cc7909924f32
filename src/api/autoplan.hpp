/**
 * @file
 * The `auto` backend and spec-level cost estimation — the api-layer
 * face of the plan:: cost model.
 *
 * Three consumers sit on this header:
 *   - the `auto` backend (AutoSampler): enumerate the candidate
 *     plans for the concrete routed circuit, execute the cheapest
 *     through makeBackend, stay bit-identical to whichever backend
 *     it selects;
 *   - ExecutionService admission (estimateSpecCost): a cheap,
 *     never-throwing cost estimate from workload *shape* alone,
 *     before anything is built, for deadline shedding and the
 *     predicted/measured cost totals in ServiceStats;
 *   - the CLI (`--explain-plan`): human-readable ranking dumps.
 */

#ifndef HAMMER_API_AUTOPLAN_HPP
#define HAMMER_API_AUTOPLAN_HPP

#include <memory>
#include <string>
#include <vector>

#include "api/backend.hpp"
#include "noise/sampler.hpp"
#include "plan/cost_model.hpp"

namespace hammer::api {

struct ExperimentSpec;

// ---------------------------------------------------------------------------
// Spec-level estimation (deadline shedding, cost telemetry)
// ---------------------------------------------------------------------------

/**
 * Approximate plan features for a spec whose workload may not be
 * built yet: family strings (bv/ghz/qaoa/mirror) map to analytic
 * qubit/gate shapes, a prebuilt workloadInstance is measured exactly.
 */
plan::PlanFeatures approximateSpecFeatures(const ExperimentSpec &spec);

/**
 * Predicted execution cost of @p spec in seconds.  `auto` prices as
 * its cheapest candidate.  Never throws: specs that would fail later
 * (unknown machine, unknown family) get a small fallback cost, so
 * admission still reaches its shedding decision deterministically.
 */
double estimateSpecCost(const ExperimentSpec &spec);

// ---------------------------------------------------------------------------
// The `auto` backend
// ---------------------------------------------------------------------------

/**
 * Cost-model-selected backend: ranks the candidate plans for each
 * circuit it is asked to execute and delegates to the cheapest,
 * built by makeBackend from the same spec, passing the RNG straight
 * through — the returned histogram is bit-identical to running the
 * selected backend directly.
 *
 * Selection is a pure function of the circuit, the noise model, the
 * shots and the trajectories — never of the kernel tier, the
 * environment or what earlier traffic left in a cache — so every
 * process on every host picks the same plan for the same spec.
 */
class AutoSampler final : public noise::NoisySampler
{
  public:
    explicit AutoSampler(const BackendSpec &spec);

    core::Distribution sample(const circuits::RoutedCircuit &routed,
                              int measured_qubits, int shots,
                              common::Rng &rng,
                              int threads = 0) override;

    /** Ranked candidates for @p routed (cheapest first). */
    std::vector<plan::RankedPlan>
    rank(const circuits::RoutedCircuit &routed) const;

    /** The plan the most recent sample() executed. */
    const plan::PlanChoice &lastChoice() const { return lastChoice_; }

  private:
    BackendSpec spec_;
    noise::NoiseModel model_;
    plan::PlanChoice lastChoice_;
};

/**
 * Human-readable ranked-candidate dump for `--explain-plan`: builds
 * the spec's workload, extracts its features and lists every
 * candidate plan with its predicted cost breakdown, cheapest first.
 */
std::string explainPlan(const ExperimentSpec &spec);

} // namespace hammer::api

#endif // HAMMER_API_AUTOPLAN_HPP
