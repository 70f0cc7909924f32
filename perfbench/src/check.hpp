/**
 * @file
 * Correctness checks on served Results.
 *
 * Every Result gets the light check (identity fields match the
 * request, both histograms normalised).  A deterministic 1-in-k
 * sample also gets the deep check after the timed phase: a fresh
 * Pipeline::run of the same spec, which bypasses every cache,
 * coalescing and the wire, must produce the same canonical JSON, and
 * a `hammer`-chain result must match the Algorithm 1 reference
 * normalise(S(x) * P(x)) built on core::neighborhoodScore.
 */

#ifndef PERFBENCH_CHECK_HPP
#define PERFBENCH_CHECK_HPP

#include <cstdint>
#include <string>

#include "api/pipeline.hpp"
#include "requests.hpp"

namespace perfbench {

/** Light check; returns "" when @p result passes, else the reason. */
std::string checkResult(const Request &request,
                        const api::ExperimentSpec &spec,
                        const api::Result &result);

/**
 * True when request @p index belongs to the deep sample: every
 * @p every-th request, from a seed-chosen offset.
 */
bool inDeepSample(std::uint64_t seed, std::size_t index, int every);

/**
 * Deep check of one served Result JSON line against a fresh
 * Pipeline::run of @p spec (run with @p threads inner threads).
 * Returns "" when it passes, else the reason.
 */
std::string deepCheck(const api::ExperimentSpec &spec,
                      const std::string &servedJson,
                      const std::string &chain, int threads);

/**
 * HAMMER reference check: @p mitigated must equal
 * normalise(S(x) * P(x)) over @p raw within @p relTol, where S is
 * Algorithm 1's neighbourhood score (pinned to core::neighborhoodScore
 * on the most and least probable outcomes).
 */
std::string hammerReferenceCheck(const core::Distribution &raw,
                                 const core::Distribution &mitigated,
                                 double relTol = 1e-9);

} // namespace perfbench

#endif // PERFBENCH_CHECK_HPP
