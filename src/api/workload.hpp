/**
 * @file
 * Workloads and the workload table — the problem half of the
 * experiment pipeline.
 *
 * A Workload bundles everything the execution and scoring stages need
 * to know about one benchmark instance: the logical circuit, the
 * device it was routed onto, the routed result, which qubits are
 * measured, and the success predicate (the set of correct outcomes).
 * makeWorkload maps string specs ("bv:8", "qaoa:3reg:10:2", ...) to
 * builders so entry points select workloads by name instead of
 * hand-wiring circuit construction.
 */

#ifndef HAMMER_API_WORKLOAD_HPP
#define HAMMER_API_WORKLOAD_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "circuits/coupling.hpp"
#include "circuits/qaoa_circuit.hpp"
#include "circuits/transpiler.hpp"
#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "sim/circuit.hpp"

namespace hammer::api {

/**
 * One ready-to-run experiment instance: routed circuit, success
 * predicate, and family-specific metadata.
 *
 * The family-specific fields (key, graph, entanglingHalf, ...) carry
 * their defaults when not applicable; correctOutcomes is empty when
 * the correct answer is unknown (metrics that need it are skipped).
 */
struct Workload
{
    /**
     * Build a workload by routing @p logical onto @p coupling.
     *
     * @param family Family tag ("bv", "ghz", "qaoa", "mirror", or a
     *        caller-defined name).
     * @param logical Pre-routing logical circuit.
     * @param coupling Device connectivity (use CouplingMap::full for
     *        an all-to-all device, which makes routing a no-op).
     * @param measured_qubits Logical qubits measured (prefix); must
     *        be in [1, logical.numQubits()].
     * @throws std::invalid_argument on a bad measured-qubit count or
     *         width mismatch.
     */
    Workload(std::string family, sim::Circuit logical,
             circuits::CouplingMap coupling, int measured_qubits);

    std::string spec;       ///< makeWorkload spec ("" = hand-built).
    std::string family;     ///< Family tag.
    sim::Circuit logical;   ///< Pre-routing circuit.
    circuits::CouplingMap coupling; ///< Device used for routing.
    circuits::RoutedCircuit routed; ///< Routed, executable circuit.
    int measuredQubits;     ///< Measured logical qubits (prefix).

    /** Correct outcome(s); empty when unknown. */
    std::vector<common::Bits> correctOutcomes;

    /**
     * Noise-preset hint assigned by the sweep builders that cycle
     * workloads over machines ("" = caller's choice).
     */
    std::string machine;

    common::Bits key = 0;   ///< BV secret key.
    int layers = 0;         ///< QAOA layer count p.
    graph::Graph graph{1};  ///< QAOA problem graph (placeholder otherwise).
    double minCost = 0.0;   ///< QAOA brute-force optimum C_min.

    /** Mirror benchmarks: the entangling first half H.U_R. */
    std::optional<sim::Circuit> entanglingHalf;

    /** Free-form annotations (sweep builders record parameters here). */
    std::map<std::string, std::string> metadata;

    /** Success predicate: true when @p outcome is a correct answer. */
    bool isCorrect(common::Bits outcome) const;
};

/**
 * Build the workload @p spec names: `<family>[:<arg>...]`, with the
 * family looked up in one fixed table and the colon-separated
 * arguments passed to its builder.  The families, sorted by name:
 *
 *   bv:<n>[:<key-bitstring>]   BV with a random (or fixed) key
 *   ghz:<n>                    GHZ state preparation
 *   mirror:<n>[:<depth>]       random mirror benchmark
 *   qaoa:<family>:<n>:<p>      max-cut QAOA; family = 3reg|rand|ring|grid
 *   qaoa:<n>:<p>               shorthand for qaoa:3reg:<n>:<p>
 *
 * Circuits the table cannot describe run as a prebuilt
 * ExperimentSpec::workloadInstance.  The returned workload's spec
 * field is set to @p spec; @p rng feeds the families with stochastic
 * instances (random keys, random graphs).
 *
 * @throws std::invalid_argument for an unknown family or malformed
 *         arguments (the message names the offending spec and the
 *         accepted ones).
 */
Workload makeWorkload(const std::string &spec, common::Rng &rng);

/** One usage line per family, sorted by name, newline-joined. */
std::string workloadUsage();

/** Split a spec on ':' (no unescaping; empty parts preserved). */
std::vector<std::string> splitSpec(const std::string &spec);

/**
 * Parse a strictly positive integer from a spec argument.
 *
 * The shared validation primitive of every spec parser (workload
 * specs, mitigation chains, CLI flags).
 *
 * @param text Digits to parse.
 * @param context Name of the spec or flag being parsed, quoted in
 *        the error message.
 * @throws std::invalid_argument when @p text is not a positive
 *         integer or exceeds INT_MAX.
 */
int parsePositiveInt(const std::string &text,
                     const std::string &context);

/**
 * Largest seed a spec carries: 2^53 - 1, the largest integer a JSON
 * number holds exactly, so a seed reads the same in the CSV and JSON
 * spec-line forms, on the command line and across the shard wire.
 */
inline constexpr std::uint64_t kMaxSpecSeed =
    (std::uint64_t{1} << 53) - 1;

/**
 * Parse an experiment seed: decimal digits of an integer in
 * [0, kMaxSpecSeed] (no sign, no space).  The one seed syntax of the
 * CSV spec line and `hammer_cli --seed`.
 *
 * @param text Digits to parse.
 * @param context Name of the field or flag, quoted in the error.
 * @throws std::invalid_argument when @p text is not such an integer.
 */
std::uint64_t parseSeed(const std::string &text,
                        const std::string &context);

// ---------------------------------------------------------------------------
// Direct builders (makeWorkload calls these; benches and examples
// that need parameters a spec cannot carry call them directly).
// ---------------------------------------------------------------------------

/** One routed BV instance on a line device. */
Workload makeBvWorkload(int key_bits, common::Bits key,
                        const std::string &machine = "");

/** One GHZ instance on a line device (correct: all-0 and all-1). */
Workload makeGhzWorkload(int num_qubits);

/**
 * One routed QAOA max-cut instance.
 *
 * @param g Problem graph.
 * @param params Variational parameters (explicit angles — the
 *        variational-loop entry point).
 * @param grid_device Route onto a grid (SWAP-free for grid graphs)
 *        instead of a line.
 * @param grid_rows,grid_cols Grid device shape when @p grid_device.
 * @param family Family tag recorded on the workload.
 * @param compute_optimum Brute-force C_min and the optimal cuts
 *        (2^n scan; disable for large n).
 */
Workload makeQaoaWorkload(const graph::Graph &g,
                          const circuits::QaoaParams &params,
                          bool grid_device = false, int grid_rows = 0,
                          int grid_cols = 0,
                          const std::string &family = "3reg",
                          bool compute_optimum = true);

/** Same, with the standard linear-ramp schedule for @p layers. */
Workload makeQaoaWorkload(const graph::Graph &g, int layers,
                          bool grid_device = false, int grid_rows = 0,
                          int grid_cols = 0,
                          const std::string &family = "3reg",
                          bool compute_optimum = true);

/**
 * One random mirror benchmark on an all-to-all device (correct:
 * all-0), with the entangling half recorded for entropy analysis.
 */
Workload makeMirrorWorkload(int num_qubits, int depth,
                            double two_qubit_density, common::Rng &rng,
                            double angle_scale = 1.0);

// ---------------------------------------------------------------------------
// Sweep builders (promoted from bench/support): batches of instances
// with machines cycled over them, as the paper's Tables 1-2 sweeps.
// ---------------------------------------------------------------------------

/**
 * A batch of BV instances with random non-zero keys.
 *
 * @param sizes Key widths to include.
 * @param keys_per_size Random keys generated per width.
 * @param machines Noise presets cycled over the instances.
 * @param rng Random source.
 */
std::vector<Workload>
makeBvSweep(const std::vector<int> &sizes, int keys_per_size,
            const std::vector<std::string> &machines, common::Rng &rng);

/**
 * QAOA on random 3-regular graphs routed onto a line device (worst
 * case routing, as on the paper's heavy-hex IBM machines).
 */
std::vector<Workload>
makeQaoa3RegSweep(const std::vector<int> &sizes,
                  const std::vector<int> &layer_counts,
                  int instances_per_config, common::Rng &rng);

/**
 * QAOA on grid graphs routed onto a matching grid device (SWAP-free,
 * like the hardware-native Sycamore instances).
 */
std::vector<Workload>
makeQaoaGridSweep(const std::vector<std::pair<int, int>> &shapes,
                  const std::vector<int> &layer_counts);

/**
 * QAOA on Erdos-Renyi random graphs (Table 2's "Rand Graphs" rows)
 * routed onto a line device.
 */
std::vector<Workload>
makeQaoaRandSweep(const std::vector<int> &sizes,
                  const std::vector<int> &layer_counts,
                  int instances_per_config, common::Rng &rng);

} // namespace hammer::api

#endif // HAMMER_API_WORKLOAD_HPP
