/**
 * @file
 * Ensemble of Diverse Mappings (EDM) baseline.
 *
 * Re-implementation of the post-processing comparator the paper
 * discusses in Section 8 (Tannu & Qureshi, MICRO'19 [42]): run the
 * same program under several different qubit mappings, so that each
 * copy makes *dissimilar* mistakes, then average the histograms.
 * Correlated errors tied to specific physical qubits decohere across
 * the ensemble while the correct answer reinforces.
 *
 * HAMMER is orthogonal to EDM: the ablation bench composes them.
 */

#ifndef HAMMER_MITIGATION_ENSEMBLE_HPP
#define HAMMER_MITIGATION_ENSEMBLE_HPP

#include <vector>

#include "circuits/coupling.hpp"
#include "common/rng.hpp"
#include "core/distribution.hpp"
#include "noise/sampler.hpp"
#include "sim/circuit.hpp"

namespace hammer::mitigation {

/** Settings for the diverse-mapping ensemble. */
struct EnsembleOptions
{
    /** Number of distinct mappings (the paper's EDM uses 3). */
    int mappings = 3;
};

/**
 * Generate @p count diverse initial layouts for an n-qubit device:
 * the identity plus rotations of the physical ring, which steer the
 * program through disjoint sets of physical couplers.
 */
std::vector<std::vector<int>> diverseLayouts(int num_qubits, int count);

/**
 * Execute @p circuit under several diverse mappings and average the
 * resulting histograms (each mapping gets an equal share of the shot
 * budget).
 *
 * Each mapping runs through NoisySampler::sample in mapping order, so
 * the combined histogram inherits its contract: bit-identical for
 * every @p threads value, and @p rng advanced by one draw per
 * mapping.
 *
 * @param circuit Logical circuit.
 * @param coupling Device connectivity.
 * @param measured_qubits Logical qubits measured (prefix).
 * @param sampler Noisy execution backend.
 * @param shots Total shot budget across the ensemble.
 * @param rng Random source.
 * @param options Ensemble settings.
 * @param threads Worker threads per mapping's sampling; 0 selects
 *        the default (see NoisySampler::sample).
 * @return Normalised combined distribution.
 */
core::Distribution
ensembleSample(const sim::Circuit &circuit,
               const circuits::CouplingMap &coupling,
               int measured_qubits, noise::NoisySampler &sampler,
               int shots, common::Rng &rng,
               const EnsembleOptions &options = {}, int threads = 0);

} // namespace hammer::mitigation

#endif // HAMMER_MITIGATION_ENSEMBLE_HPP
