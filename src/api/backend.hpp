/**
 * @file
 * Execution backends and the backend registry — the machine half of
 * the experiment pipeline.
 *
 * A BackendSpec carries everything needed to stand up one noisy
 * execution backend (noise preset, shot/trajectory budgets, worker
 * threads, RNG seed); the registry maps backend names ("trajectory",
 * "channel", "exact") to factories over noise::NoisySampler so new
 * backends plug in without touching any caller.
 */

#ifndef HAMMER_API_BACKEND_HPP
#define HAMMER_API_BACKEND_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "noise/channel_sampler.hpp"
#include "noise/noise_model.hpp"
#include "noise/sampler.hpp"

namespace hammer::api {

/**
 * Everything needed to stand up one execution backend.
 *
 * The noise model is normally selected by preset name and scale;
 * callers with a hand-tuned model set @c model, which wins over both.
 */
struct BackendSpec
{
    std::string machine = "machineA"; ///< noise::machinePreset name.
    double noiseScale = 1.0;          ///< Uniform error-rate scale.
    int shots = 8192;                 ///< Shot budget.
    int trajectories = 250;           ///< Trajectory backend only.
    int threads = 0;                  ///< 0 = HAMMER_THREADS / all cores.
    std::uint64_t seed = 1;           ///< Experiment RNG seed.

    /** Explicit noise model; overrides machine/noiseScale when set. */
    std::optional<noise::NoiseModel> model;

    /** Channel-backend tuning (bursts, coherent errors, ...). */
    std::optional<noise::ChannelParams> channelParams;
};

/**
 * The noise model a spec describes: @c model when set, otherwise
 * machinePreset(machine).scaled(noiseScale).
 *
 * @throws std::invalid_argument for an unknown preset name or a
 *         negative scale.
 */
noise::NoiseModel resolveNoiseModel(const BackendSpec &spec);

/**
 * Validate the numeric fields of a spec (shots > 0, trajectories > 0,
 * threads >= 0, noiseScale >= 0), throwing std::invalid_argument with
 * a field-naming message on the first violation.
 */
void validateBackendSpec(const BackendSpec &spec);

/**
 * String-keyed backend factories over noise::NoisySampler.
 *
 * Built-ins (see defaultBackendRegistry()):
 *   trajectory    Monte-Carlo Pauli trajectories (reference physics)
 *   channel       analytic end-of-circuit channel (fast sweeps)
 *   exact         density-matrix ground truth (<= ~10 qubits),
 *                 evolved once per (circuit, model) and resampled
 *   auto          cost-model-selected: ranks candidate plans with the
 *                 fixed plan:: cost model and executes the cheapest,
 *                 bit-identical to that backend
 */
class BackendRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<noise::NoisySampler>(
        const BackendSpec &spec)>;

    /**
     * Register a backend.
     *
     * @throws std::invalid_argument when @p name is already taken.
     */
    void add(const std::string &name, Factory factory);

    /** True when @p name has a registered factory. */
    bool contains(const std::string &name) const;

    /** Registered backend names, sorted. */
    std::vector<std::string> names() const;

    /**
     * Instantiate backend @p name from @p spec.
     *
     * Validates the spec first (validateBackendSpec).
     *
     * @throws std::invalid_argument for an unknown name (the message
     *         lists the known ones) or an invalid spec.
     */
    std::unique_ptr<noise::NoisySampler>
    make(const std::string &name, const BackendSpec &spec) const;

    /** The process-wide registry, pre-loaded with the built-ins. */
    static BackendRegistry &global();

  private:
    std::map<std::string, Factory> factories_;
};

/** A fresh registry containing only the built-in backends. */
BackendRegistry defaultBackendRegistry();

} // namespace hammer::api

#endif // HAMMER_API_BACKEND_HPP
