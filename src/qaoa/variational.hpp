/**
 * @file
 * End-to-end variational QAOA driver (paper Section 2.3's loop as a
 * library service): route the ansatz, execute on a noisy backend,
 * optionally post-process with HAMMER inside the objective, and
 * optimise the angles with a grid seed + Nelder-Mead refinement.
 */

#ifndef HAMMER_QAOA_VARIATIONAL_HPP
#define HAMMER_QAOA_VARIATIONAL_HPP

#include "circuits/coupling.hpp"
#include "circuits/qaoa_circuit.hpp"
#include "common/rng.hpp"
#include "core/distribution.hpp"
#include "core/hammer.hpp"
#include "graph/graph.hpp"
#include "noise/sampler.hpp"

namespace hammer::qaoa {

/** Settings for the variational loop. */
struct VariationalOptions
{
    int layers = 1;              ///< Ansatz depth p.
    int shotsPerEvaluation = 4096; ///< Shots per objective call.
    int gridPointsPerDim = 5;    ///< Coarse-seed resolution.
    int refineEvaluations = 60;  ///< Nelder-Mead budget.
    bool useHammer = false;      ///< Reconstruct inside the loop.
    core::HammerConfig hammerConfig{}; ///< HAMMER parameters.
    double betaLo = -0.8;        ///< Search box.
    double betaHi = 0.8;
    double gammaLo = -1.6;
    double gammaHi = 0.0;
};

/** Outcome of a variational run. */
struct VariationalResult
{
    circuits::QaoaParams params;     ///< Best angles found.
    double costExpectation = 0.0;    ///< E[C] at the best angles.
    double costRatio = 0.0;          ///< CR at the best angles.
    int evaluations = 0;             ///< Objective calls consumed.
    core::Distribution finalDistribution; ///< Output at best angles.

    VariationalResult() : finalDistribution(1) {}
};

/**
 * Run the full variational loop for max-cut on @p g.
 *
 * All p layers share the two optimised parameters (a (beta, gamma)
 * schedule scaled from the linear ramp), which keeps the classical
 * search two-dimensional at any depth — the common practice for
 * fixed-angle QAOA studies.
 *
 * Every evaluation samples through NoisySampler::sample at the
 * default thread count, so the result is the same for every thread
 * count and @p rng advances by one draw per evaluation.
 *
 * @param g Problem graph.
 * @param coupling Device connectivity (ansatz is routed onto it).
 * @param sampler Noisy execution backend.
 * @param rng Random source.
 * @param options Loop settings.
 */
VariationalResult
optimizeMaxcut(const graph::Graph &g,
               const circuits::CouplingMap &coupling,
               noise::NoisySampler &sampler, common::Rng &rng,
               const VariationalOptions &options = {});

} // namespace hammer::qaoa

#endif // HAMMER_QAOA_VARIATIONAL_HPP
