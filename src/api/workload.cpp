#include "api/workload.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <limits>

#include "circuits/bv.hpp"
#include "circuits/ghz.hpp"
#include "circuits/mirror.hpp"
#include "common/logging.hpp"
#include "graph/generators.hpp"
#include "graph/maxcut.hpp"

namespace hammer::api {

using common::Bits;
using common::fatal;
using common::require;
using common::Rng;

namespace {

/**
 * Brute-forcing C_min is a 2^n scan; beyond this width a qaoa spec
 * leaves the optimum unset instead of stalling.
 */
constexpr int kMaxOptimumQubits = 20;

void
checkWidth(int n, int max_width, const std::string &spec)
{
    if (n > max_width)
        fatal("workload spec '" + spec + "' exceeds the " +
              std::to_string(max_width) + "-qubit simulator limit");
}

/** Most-square factorisation rows*cols == n with rows <= cols. */
std::pair<int, int>
squarishShape(int n)
{
    int rows = 1;
    for (int r = 1; r * r <= n; ++r) {
        if (n % r == 0)
            rows = r;
    }
    return {rows, n / rows};
}

void
fillQaoaOptimum(Workload &w, const graph::Graph &g)
{
    const auto opt = graph::bruteForceOptimum(g);
    w.minCost = opt.minCost;
    w.correctOutcomes = opt.bestCuts;
}

// ---------------------------------------------------------------------------
// Family table
// ---------------------------------------------------------------------------

Workload
bvFromArgs(const std::vector<std::string> &args, Rng &rng)
{
    const std::string spec = "bv spec";
    if (args.size() < 1 || args.size() > 2)
        fatal("bv spec takes 1-2 arguments: "
              "bv:<n>[:<key-bitstring>]");
    const int n = parsePositiveInt(args[0], spec);
    checkWidth(n, 23, spec); // + 1 ancilla qubit
    Bits key = 0;
    if (args.size() == 2) {
        if (static_cast<int>(args[1].size()) != n)
            fatal("bv key '" + args[1] + "' must be exactly " +
                  std::to_string(n) + " binary digits");
        for (char c : args[1])
            if (c != '0' && c != '1')
                fatal("bv key '" + args[1] +
                      "' must be binary digits");
        key = common::fromBitstring(args[1]);
    } else {
        // Avoid the empty key (no oracle, trivially noise-free).
        while (key == 0)
            key = rng.uniformInt(Bits{1} << n);
    }
    return makeBvWorkload(n, key);
}

Workload
ghzFromArgs(const std::vector<std::string> &args, Rng &)
{
    if (args.size() != 1)
        fatal("ghz spec takes 1 argument: ghz:<n>");
    const int n = parsePositiveInt(args[0], "ghz spec");
    checkWidth(n, 24, "ghz");
    return makeGhzWorkload(n);
}

Workload
mirrorFromArgs(const std::vector<std::string> &args, Rng &rng)
{
    if (args.size() < 1 || args.size() > 2)
        fatal("mirror spec takes 1-2 arguments: "
              "mirror:<n>[:<depth>]");
    const int n = parsePositiveInt(args[0], "mirror spec");
    checkWidth(n, 24, "mirror");
    const int depth =
        args.size() == 2 ? parsePositiveInt(args[1], "mirror spec") : 8;
    return makeMirrorWorkload(n, depth, 0.5, rng);
}

Workload
qaoaFromArgs(const std::vector<std::string> &args, Rng &rng)
{
    // Accept both qaoa:<family>:<n>:<p> and the historical CLI
    // shorthand qaoa:<n>:<p> (family defaults to 3reg).
    std::string family = "3reg";
    std::vector<std::string> rest = args;
    if (rest.size() == 3) {
        family = rest[0];
        rest.erase(rest.begin());
    }
    if (rest.size() != 2)
        fatal("qaoa spec takes 2-3 arguments: "
              "qaoa:[<family>:]<n>:<p>");
    const int n = parsePositiveInt(rest[0], "qaoa spec");
    checkWidth(n, 24, "qaoa");
    const int p = parsePositiveInt(rest[1], "qaoa spec");
    const bool optimum = n <= kMaxOptimumQubits;

    if (family == "3reg") {
        return makeQaoaWorkload(graph::kRegular(n, 3, rng), p, false,
                                0, 0, family, optimum);
    }
    if (family == "rand") {
        // Edge density 0.2-0.8 as in the paper's Table 2
        // methodology.
        const double density = rng.uniform(0.2, 0.8);
        return makeQaoaWorkload(graph::erdosRenyi(n, density, rng), p,
                                false, 0, 0, family, optimum);
    }
    if (family == "ring") {
        return makeQaoaWorkload(graph::ring(n), p, false, 0, 0, family,
                                optimum);
    }
    if (family == "grid") {
        const auto [rows, cols] = squarishShape(n);
        return makeQaoaWorkload(graph::grid(rows, cols), p, true, rows,
                                cols, family, optimum);
    }
    fatal("unknown qaoa family '" + family +
          "' (known: 3reg, rand, ring, grid)");
}

struct Family
{
    const char *name;
    const char *usage; ///< One line for --list and errors.
    /** Builds an instance from the spec's arguments (family stripped). */
    Workload (*build)(const std::vector<std::string> &args, Rng &rng);
};

/** The built-in families, sorted by name. */
const Family kFamilies[] = {
    {"bv", "bv:<n>[:<key-bitstring>]", bvFromArgs},
    {"ghz", "ghz:<n>", ghzFromArgs},
    {"mirror", "mirror:<n>[:<depth>]", mirrorFromArgs},
    {"qaoa", "qaoa:[<family>:]<n>:<p>  (family: 3reg|rand|ring|grid)",
     qaoaFromArgs},
};

} // namespace

Workload::Workload(std::string family_, sim::Circuit logical_,
                   circuits::CouplingMap coupling_, int measured_qubits)
    : family(std::move(family_)),
      logical(std::move(logical_)),
      coupling(std::move(coupling_)),
      routed(circuits::transpile(logical, coupling)),
      measuredQubits(measured_qubits)
{
    require(measuredQubits >= 1,
            "Workload: measured_qubits must be > 0 (got " +
                std::to_string(measuredQubits) + ")");
    require(measuredQubits <= logical.numQubits(),
            "Workload: measured_qubits exceeds the circuit width");
}

bool
Workload::isCorrect(Bits outcome) const
{
    return std::find(correctOutcomes.begin(), correctOutcomes.end(),
                     outcome) != correctOutcomes.end();
}

Workload
makeWorkload(const std::string &spec, Rng &rng)
{
    auto parts = splitSpec(spec);
    const auto family =
        std::find_if(std::begin(kFamilies), std::end(kFamilies),
                     [&](const Family &f) { return parts[0] == f.name; });
    if (family == std::end(kFamilies)) {
        std::string known;
        for (const Family &f : kFamilies) {
            if (!known.empty())
                known += ", ";
            known += f.name;
        }
        fatal("unknown workload family in spec '" + spec +
              "' (known families: " + known + ")");
    }
    parts.erase(parts.begin());
    Workload w = family->build(parts, rng);
    w.spec = spec;
    return w;
}

std::string
workloadUsage()
{
    std::string text;
    for (const Family &family : kFamilies) {
        if (!text.empty())
            text += '\n';
        text += family.usage;
    }
    return text;
}

std::vector<std::string>
splitSpec(const std::string &spec)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    for (;;) {
        const std::size_t colon = spec.find(':', start);
        parts.push_back(spec.substr(start, colon - start));
        if (colon == std::string::npos)
            break;
        start = colon + 1;
    }
    return parts;
}

int
parsePositiveInt(const std::string &text, const std::string &context)
{
    std::size_t consumed = 0;
    long value = 0;
    try {
        value = std::stol(text, &consumed);
    } catch (const std::exception &) {
        consumed = 0;
    }
    // Range-check before the cast: a long past INT_MAX would wrap
    // (4294967297 shots would silently run 1).
    if (consumed != text.size() || value <= 0 ||
        value > std::numeric_limits<int>::max())
        fatal(context + ": '" + text +
              "' is not a positive integer");
    return static_cast<int>(value);
}

std::uint64_t
parseSeed(const std::string &text, const std::string &context)
{
    errno = 0;
    char *end = nullptr;
    // strtoull accepts a sign and leading space; a seed is digits.
    const unsigned long long value =
        std::strtoull(text.c_str(), &end, 10);
    if (text[0] < '0' || text[0] > '9' || *end != '\0' ||
        errno == ERANGE || value > kMaxSpecSeed)
        fatal(context + ": '" + text +
              "' is not an integer in [0, 2^53)");
    return value;
}

// ---------------------------------------------------------------------------
// Direct builders
// ---------------------------------------------------------------------------

Workload
makeBvWorkload(int key_bits, Bits key, const std::string &machine)
{
    Workload w("bv", circuits::bernsteinVazirani(key_bits, key),
               circuits::CouplingMap::line(key_bits + 1), key_bits);
    w.key = key;
    w.correctOutcomes = {key};
    w.machine = machine;
    w.metadata["key"] = common::toBitstring(key, key_bits);
    return w;
}

Workload
makeGhzWorkload(int num_qubits)
{
    Workload w("ghz", circuits::ghz(num_qubits),
               circuits::CouplingMap::line(num_qubits), num_qubits);
    w.correctOutcomes = {0, (Bits{1} << num_qubits) - 1};
    return w;
}

Workload
makeQaoaWorkload(const graph::Graph &g,
                 const circuits::QaoaParams &params, bool grid_device,
                 int grid_rows, int grid_cols,
                 const std::string &family, bool compute_optimum)
{
    const int n = g.numVertices();
    Workload w("qaoa", circuits::qaoaCircuit(g, params),
               grid_device
                   ? circuits::CouplingMap::grid(grid_rows, grid_cols)
                   : circuits::CouplingMap::line(n),
               n);
    w.layers = params.layers();
    w.graph = g;
    w.metadata["qaoa_family"] = family;
    if (compute_optimum)
        fillQaoaOptimum(w, g);
    return w;
}

Workload
makeQaoaWorkload(const graph::Graph &g, int layers, bool grid_device,
                 int grid_rows, int grid_cols,
                 const std::string &family, bool compute_optimum)
{
    return makeQaoaWorkload(g, circuits::linearRampParams(layers),
                            grid_device, grid_rows, grid_cols, family,
                            compute_optimum);
}

Workload
makeMirrorWorkload(int num_qubits, int depth, double two_qubit_density,
                   Rng &rng, double angle_scale)
{
    const auto mirror = circuits::randomMirrorCircuit(
        num_qubits, depth, two_qubit_density, rng, angle_scale);
    Workload w("mirror", mirror.full,
               circuits::CouplingMap::full(num_qubits), num_qubits);
    w.correctOutcomes = {0};
    w.entanglingHalf = mirror.firstHalf;
    w.metadata["depth"] = std::to_string(depth);
    return w;
}

// ---------------------------------------------------------------------------
// Sweep builders
// ---------------------------------------------------------------------------

std::vector<Workload>
makeBvSweep(const std::vector<int> &sizes, int keys_per_size,
            const std::vector<std::string> &machines, Rng &rng)
{
    require(!machines.empty(), "makeBvSweep: no machines");
    std::vector<Workload> workload;
    std::size_t machine_index = 0;
    for (int n : sizes) {
        for (int k = 0; k < keys_per_size; ++k) {
            // Avoid the empty key (no oracle, trivially noise-free).
            Bits key = 0;
            while (key == 0)
                key = rng.uniformInt(Bits{1} << n);
            workload.push_back(makeBvWorkload(
                n, key, machines[machine_index % machines.size()]));
            ++machine_index;
        }
    }
    return workload;
}

std::vector<Workload>
makeQaoa3RegSweep(const std::vector<int> &sizes,
                  const std::vector<int> &layer_counts,
                  int instances_per_config, Rng &rng)
{
    std::vector<Workload> workload;
    for (int n : sizes) {
        for (int p : layer_counts) {
            for (int i = 0; i < instances_per_config; ++i) {
                const auto g = graph::kRegular(n, 3, rng);
                workload.push_back(
                    makeQaoaWorkload(g, p, false, 0, 0, "3reg"));
            }
        }
    }
    return workload;
}

std::vector<Workload>
makeQaoaGridSweep(const std::vector<std::pair<int, int>> &shapes,
                  const std::vector<int> &layer_counts)
{
    std::vector<Workload> workload;
    for (const auto &[rows, cols] : shapes) {
        for (int p : layer_counts) {
            const auto g = graph::grid(rows, cols);
            workload.push_back(
                makeQaoaWorkload(g, p, true, rows, cols, "grid"));
        }
    }
    return workload;
}

std::vector<Workload>
makeQaoaRandSweep(const std::vector<int> &sizes,
                  const std::vector<int> &layer_counts,
                  int instances_per_config, Rng &rng)
{
    std::vector<Workload> workload;
    for (int n : sizes) {
        for (int p : layer_counts) {
            for (int i = 0; i < instances_per_config; ++i) {
                // Edge density 0.2-0.8 as in the paper's Table 2
                // methodology.
                const double density = rng.uniform(0.2, 0.8);
                const auto g = graph::erdosRenyi(n, density, rng);
                workload.push_back(
                    makeQaoaWorkload(g, p, false, 0, 0, "rand"));
            }
        }
    }
    return workload;
}

} // namespace hammer::api
