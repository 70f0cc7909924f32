/**
 * @file
 * Mitigators and mitigation chains — the post-processing half of the
 * experiment pipeline.
 *
 * A Mitigator is one histogram -> histogram transformation; the
 * concrete adapters wrap the library's HAMMER reconstruction,
 * tensored readout-error mitigation, and the Ensemble-of-Diverse-
 * Mappings baseline behind one interface, and a MitigationChain
 * composes any of them in order (the paper's "(d) both" comparisons).
 * Chains parse from comma-separated specs ("readout,hammer") so entry
 * points select mitigation by name.
 */

#ifndef HAMMER_API_MITIGATION_HPP
#define HAMMER_API_MITIGATION_HPP

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/workload.hpp"
#include "core/distribution.hpp"
#include "core/hammer.hpp"
#include "mitigation/ensemble.hpp"
#include "mitigation/readout_mitigation.hpp"
#include "noise/noise_model.hpp"
#include "noise/sampler.hpp"

namespace hammer::api {

/**
 * Everything a mitigation stage may need beyond the histogram
 * itself.  The pipeline fills all fields; histogram-only flows (e.g.
 * post-processing data measured elsewhere) may leave the workload,
 * sampler and rng null — stages that need them throw a descriptive
 * error.
 */
struct MitigationContext
{
    /** Workload being mitigated (null for external histograms). */
    const Workload *workload = nullptr;

    /** Calibrated noise model (readout mitigation reads this). */
    noise::NoiseModel model;

    /** Execution backend (ensemble resampling; may be null). */
    noise::NoisySampler *sampler = nullptr;

    int shots = 0; ///< Shot budget of the experiment.

    /**
     * Worker threads for stages that re-execute or run parallel
     * scans (HAMMER's pair loops, readout unfolding).  > 0 overrides
     * each stage's own default; every stage stays bit-identical for
     * any thread count.
     */
    int threads = 0;

    /** Random source for stages that re-execute (may be null). */
    common::Rng *rng = nullptr;

    /** Out-param: HAMMER observability counters (may be null). */
    core::HammerStats *stats = nullptr;

    /**
     * Out-param appended to by MitigationChain::apply: per-stage
     * wall-clock, one (stage name, seconds) pair per stage in chain
     * order.  Append-only so nested chains compose; callers reusing
     * one context across apply() calls should clear it in between.
     * The pipeline surfaces these as "mitigate:<name>" entries in
     * Result::timings.
     */
    std::vector<std::pair<std::string, double>> stageSeconds;
};

/**
 * One histogram -> histogram post-processing stage.
 */
class Mitigator
{
  public:
    virtual ~Mitigator() = default;

    /** Stage name as it appears in chain specs and reports. */
    virtual std::string name() const = 0;

    /**
     * Transform @p measured.
     *
     * @param measured Normalised input histogram.
     * @param ctx Execution context (model, backend, rng, stats).
     * @return Normalised output histogram over the same bit width.
     */
    virtual core::Distribution apply(const core::Distribution &measured,
                                     MitigationContext &ctx) const = 0;
};

/** HAMMER reconstruction stage (core::reconstruct, iterated). */
class HammerMitigator final : public Mitigator
{
  public:
    /**
     * @param config Algorithm parameters (defaults = the paper).
     * @param iterations Reconstruction passes, >= 1.
     */
    explicit HammerMitigator(core::HammerConfig config = {},
                             int iterations = 1);

    std::string name() const override;
    core::Distribution apply(const core::Distribution &measured,
                             MitigationContext &ctx) const override;

  private:
    core::HammerConfig config_;
    int iterations_;
};

/** Tensored readout-error mitigation stage (the Google baseline). */
class ReadoutMitigator final : public Mitigator
{
  public:
    explicit ReadoutMitigator(
        mitigation::ReadoutMitigationOptions options = {});

    std::string name() const override;
    core::Distribution apply(const core::Distribution &measured,
                             MitigationContext &ctx) const override;

  private:
    mitigation::ReadoutMitigationOptions options_;
};

/**
 * Ensemble-of-Diverse-Mappings stage.
 *
 * Unlike the pure post-processing stages this one *re-executes* the
 * workload under several diverse qubit mappings (splitting the shot
 * budget) and returns the averaged histogram — it therefore needs the
 * workload, sampler and rng in the context, and it replaces its input
 * rather than transforming it.  Place it first in a chain.
 */
class EnsembleMitigator final : public Mitigator
{
  public:
    explicit EnsembleMitigator(mitigation::EnsembleOptions options = {});

    std::string name() const override;
    core::Distribution apply(const core::Distribution &measured,
                             MitigationContext &ctx) const override;

  private:
    mitigation::EnsembleOptions options_;
};

/**
 * Ordered composition of mitigation stages.
 *
 * apply() feeds the histogram through every stage in order; order is
 * semantically significant (readout-then-hammer is the paper's "(d)
 * both" configuration, hammer-then-readout is not).
 */
class MitigationChain final : public Mitigator
{
  public:
    MitigationChain() = default;
    explicit MitigationChain(
        std::vector<std::shared_ptr<const Mitigator>> stages);

    /** Append a stage at the end of the chain. */
    void append(std::shared_ptr<const Mitigator> stage);

    bool empty() const { return stages_.empty(); }
    std::size_t size() const { return stages_.size(); }

    /** Stage names joined with '+' ("none" when empty). */
    std::string name() const override;

    core::Distribution apply(const core::Distribution &measured,
                             MitigationContext &ctx) const override;

  private:
    std::vector<std::shared_ptr<const Mitigator>> stages_;
};

/**
 * Build one stage from a spec token `<name>[:<arg>]`, with the name
 * looked up in one fixed table.  The stages, sorted by name:
 *
 *   ensemble[:<mappings>]    diverse-mapping ensemble (re-executes)
 *   hammer[:<iterations>]    HAMMER (paper defaults)
 *   readout[:<iterations>]   iterative-Bayesian readout unfolding
 *
 * Stages the table does not name run as a prebuilt
 * ExperimentSpec::mitigator.
 *
 * @throws std::invalid_argument for an unknown name (the message
 *         lists the known ones) or bad arguments.
 */
std::shared_ptr<const Mitigator>
makeMitigator(const std::string &spec);

/** One usage line per stage, sorted by name, newline-joined. */
std::string mitigatorUsage();

/**
 * Build a chain from a comma-separated spec, e.g. "readout,hammer".
 * "" and "none" produce an empty chain (identity).
 */
MitigationChain mitigationChainFromSpec(const std::string &spec);

} // namespace hammer::api

#endif // HAMMER_API_MITIGATION_HPP
