/**
 * @file
 * Writing a traced phase's spans out as JSON.
 *
 * Spans live in memory (RequestRecord::spans plus the executed stage
 * timings) while the phase runs and are written once, at the end.
 * Each request is one "request" span; its children are the client's
 * calls into the modules, the stages the request executed (durations
 * only: the Result carries no start times), and the unexplained
 * remainder (queue wait in-process, the round trip on the fleet).
 */

#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <cstdint>
#include <string>

#include "clients.hpp"

namespace perfbench {

/** Spans of @p phase as one JSON document, @p notes embedded verbatim. */
std::string traceJson(const std::string &workload, std::uint64_t seed,
                      const PhaseResult &phase, const std::string &notes);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
