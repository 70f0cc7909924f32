#include "requests.hpp"

#include <cmath>
#include <cstdio>
#include <numbers>
#include <stdexcept>

#include "api/service.hpp"
#include "api/workload.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"

namespace perfbench {

namespace graph = hammer::graph;

namespace {

/**
 * One execution class: a workload at a fixed size, BV key and shot
 * budget.  The key is fixed because it sets the circuit depth, and so
 * the unique-outcome count N that HAMMER and readout unfolding pay
 * O(N^2) for; the seed still draws every experiment seed and the
 * order of the classes.
 */
struct ExecClass
{
    const char *workload; ///< Registry spec.
    int qubits;
    int shots;
    const char *backend;
};

// Wide histograms, N ~ 3.4k-4.8k unique outcomes (54-77 KB at 16 B
// per outcome, past a 48 KiB L1): HAMMER dominates every job.
const std::vector<ExecClass> kSweepClasses = {
    {"bv:14:00100100001111", 14, 16384, "channel"},
    {"bv:15:100011010010010", 15, 16384, "channel"},
    {"bv:16:1001010000010101", 16, 16384, "channel"},
    {"ghz:18", 18, 32768, "channel"},
};

// Readout unfolding costs O(N^2) pow() calls and sweeps an 8*N^2-byte
// response matrix 32 times.  N ~ 400-420 unique outcomes keeps that
// matrix (~1.3 MB) inside a 2 MiB per-core L2, so the stage measures
// the unfolding rather than the shared L3 and memory bus; it also
// keeps every readout job within ~2x of the others.
const std::vector<ExecClass> kReadoutClasses = {
    {"bv:10:0100100110", 10, 4096, "channel"},
    {"bv:9:110100111", 9, 4096, "channel"},
    {"ghz:10", 10, 8192, "channel"},
    {"qaoa:ring:9:2", 9, 4096, "trajectory"},
};
const std::vector<const char *> kReadoutChains = {"readout", "hammer",
                                                   "readout+hammer"};

// The repeated set: one class, so every line costs the shards the
// same to serve however the router splits the set between them.  A
// result line is ~430 KB at N ~ 3.4k unique outcomes.
const ExecClass kFleetClass = {"ghz:18", 18, 32768, "channel"};
constexpr int kFleetLines = 6;
constexpr int kFleetWarmupLines = 2;

constexpr int kQaoaNodes = 14;
constexpr int kQaoaLayers = 2;
constexpr int kQaoaTrajectories = 250;
constexpr int kQaoaShots = 4096;
constexpr double kPi = std::numbers::pi;
// Gradient stencil half-width.  The exact parameter shift (pi/4 per
// ZZ term) puts 8 of every 9 circuits where the optimal cut is almost
// never sampled, so the PST gain would rest on a handful of shots; a
// central difference keeps every circuit's PST measurable at the same
// circuit shape and cost.
constexpr double kShift = 0.1;
constexpr double kDrift = 0.05;     ///< Centre excursion (radians).
constexpr double kDriftRate = 0.7;  ///< Radians of phase per step.

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** The RNG of one block: a pure function of (kind, seed, warmup, block). */
common::Rng
blockRng(WorkloadKind kind, std::uint64_t seed, bool warmup,
         std::size_t block)
{
    std::uint64_t h = splitmix(seed);
    h = splitmix(h ^ static_cast<std::uint64_t>(kind));
    h = splitmix(h ^ (warmup ? 1u : 0u));
    return common::Rng(splitmix(h ^ block));
}

std::uint64_t
experimentSeed(common::Rng &rng, bool warmup)
{
    const std::uint64_t draw = 1 + rng.uniformInt(kWarmupSeedBase - 1);
    return warmup ? kWarmupSeedBase + draw : draw;
}

template <typename Sequence>
void
shuffle(Sequence &items, common::Rng &rng)
{
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.uniformInt(i)]);
}

/** A spec-line request: @p cls at experiment seed @p seed. */
Request
lineRequest(const ExecClass &cls, std::uint64_t seed, const std::string &chain)
{
    Request r;
    r.line = std::string(cls.workload) + "," + cls.backend + "," +
             std::to_string(cls.shots) + "," + std::to_string(seed) + "," +
             chain;
    r.measuredQubits = cls.qubits;
    r.chain = chain;
    return r;
}

} // namespace

const std::vector<WorkloadConfig> &
workloads()
{
    // kind, name, window, group size, warm-up groups, deep-check k.
    static const std::vector<WorkloadConfig> all = {
        {WorkloadKind::SweepHammer, "sweep-hammer", 4, 1, 4, 16},
        {WorkloadKind::QaoaLoop, "qaoa-loop", 4 * kQaoaLayers + 1,
         4 * kQaoaLayers + 1, 1, 16},
        // Four triples outstanding: with two, the workers idled
        // whenever the client was slow to collect a triple, and
        // throughput followed the client thread's scheduling.
        {WorkloadKind::ReadoutBoth, "readout-both", 12, 3, 8, 32},
        {WorkloadKind::FleetRepeat, "fleet-repeat", 8, 1, 4, 1},
    };
    return all;
}

const WorkloadConfig &
workloadByName(const std::string &name)
{
    std::string known;
    for (const WorkloadConfig &w : workloads()) {
        if (name == w.name)
            return w;
        known += known.empty() ? "" : ", ";
        known += w.name;
    }
    throw std::invalid_argument("unknown workload '" + name +
                                "' (known: " + known + ")");
}

std::string
Request::describe() const
{
    std::string out = std::to_string(index) + "|" + std::to_string(group) +
                      "|" + line + "|" + std::to_string(measuredQubits) +
                      "|" + chain;
    if (qaoa) {
        char buf[64];
        out += "|qaoa:" + std::to_string(qaoa->nodes) + ":" +
               std::to_string(qaoa->trajectories) + ":" +
               std::to_string(qaoa->shots) + ":" +
               std::to_string(qaoa->seed);
        for (const auto *angles : {&qaoa->params.gammas, &qaoa->params.betas}) {
            for (const double a : *angles) {
                std::snprintf(buf, sizeof buf, ":%.17g", a);
                out += buf;
            }
        }
    }
    return out;
}

RequestStream::RequestStream(WorkloadKind kind, std::uint64_t seed,
                             bool warmup)
    : kind_(kind), seed_(warmup ? 0 : seed), warmup_(warmup)
{
    if (kind_ != WorkloadKind::FleetRepeat)
        return;
    // The repeated set is drawn once per stream; every later block is
    // a reshuffle of it.
    common::Rng rng = blockRng(kind_, seed_, warmup_, ~std::size_t{0});
    for (int i = 0; i < (warmup_ ? kFleetWarmupLines : kFleetLines); ++i) {
        fleetSet_.push_back(lineRequest(
            kFleetClass, experimentSeed(rng, warmup_), "hammer"));
        fleetSet_.back().group = static_cast<std::size_t>(i);
    }
}

std::vector<Request>
RequestStream::nextGroup()
{
    if (cursor_ == block_.size()) {
        block_.clear();
        cursor_ = 0;
        common::Rng rng = blockRng(kind_, seed_, warmup_, blocks_++);
        switch (kind_) {
          case WorkloadKind::SweepHammer: {
            std::vector<ExecClass> order = kSweepClasses;
            shuffle(order, rng);
            for (const ExecClass &cls : order)
                block_.push_back(
                    lineRequest(cls, experimentSeed(rng, warmup_), "hammer"));
            break;
          }
          case WorkloadKind::ReadoutBoth: {
            std::vector<ExecClass> order = kReadoutClasses;
            shuffle(order, rng);
            for (const ExecClass &cls : order) {
                const std::uint64_t seed = experimentSeed(rng, warmup_);
                for (const char *chain : kReadoutChains)
                    block_.push_back(lineRequest(cls, seed, chain));
            }
            break;
          }
          case WorkloadKind::FleetRepeat:
            // One group per distinct line; rounds after the first are
            // reshuffled.
            block_ = fleetSet_;
            if (blocks_ > 1)
                shuffle(block_, rng);
            break;
          case WorkloadKind::QaoaLoop: {
            // One gradient step: the centre point plus +/- shifts of
            // every angle.  Each centre angle circles the
            // linear-ramp schedule with a seed-drawn phase — a pure
            // function of the seed and the step, never of results, and
            // bounded, so every seed sees the same range of circuits.
            common::Rng schedule = blockRng(kind_, seed_, warmup_,
                                            ~std::size_t{0});
            circuits::QaoaParams centre =
                circuits::linearRampParams(kQaoaLayers);
            const double step = static_cast<double>(blocks_ - 1);
            for (auto *angles : {&centre.gammas, &centre.betas}) {
                for (double &a : *angles)
                    a += kDrift * std::sin(kDriftRate * step +
                                           schedule.uniform(0.0, 2 * kPi));
            }
            std::vector<circuits::QaoaParams> points = {centre};
            for (int j = 0; j < 2 * kQaoaLayers; ++j) {
                for (const double sign : {1.0, -1.0}) {
                    circuits::QaoaParams p = centre;
                    auto &angles = j % 2 == 0 ? p.gammas : p.betas;
                    angles[j / 2] += sign * kShift;
                    points.push_back(std::move(p));
                }
            }
            for (circuits::QaoaParams &params : points) {
                Request r;
                r.measuredQubits = kQaoaNodes;
                r.chain = "hammer";
                r.qaoa = QaoaRequest{kQaoaNodes, std::move(params),
                                     kQaoaTrajectories, kQaoaShots,
                                     experimentSeed(rng, warmup_)};
                block_.push_back(std::move(r));
            }
            break;
          }
        }
    }

    const WorkloadConfig &config = workloads()[static_cast<int>(kind_)];
    std::vector<Request> group;
    for (int i = 0; i < config.groupSize; ++i) {
        Request r = block_[cursor_++];
        r.index = produced_++;
        if (kind_ != WorkloadKind::FleetRepeat)
            r.group = groups_;
        group.push_back(std::move(r));
    }
    ++groups_;
    return group;
}

std::vector<Request>
generate(WorkloadKind kind, std::uint64_t seed, bool warmup,
         std::size_t groups)
{
    RequestStream stream(kind, seed, warmup);
    std::vector<Request> out;
    for (std::size_t g = 0; g < groups; ++g)
        for (Request &r : stream.nextGroup())
            out.push_back(std::move(r));
    return out;
}

api::ExperimentSpec
parseRequest(const Request &request)
{
    api::ExperimentSpec spec = api::parseSpecLine(request.line).spec;
    spec.backendSpec.threads = kInnerThreads;
    return spec;
}

api::ExperimentSpec
buildQaoaRequest(const Request &request)
{
    const QaoaRequest &q = *request.qaoa;
    api::ExperimentSpec spec;
    spec.workloadInstance = api::makeQaoaWorkload(
        graph::ring(q.nodes), q.params, false, 0, 0, "ring", true);
    spec.backend = "trajectory";
    spec.backendSpec.shots = q.shots;
    spec.backendSpec.trajectories = q.trajectories;
    spec.backendSpec.seed = q.seed;
    spec.backendSpec.threads = kInnerThreads;
    spec.mitigation = "hammer";
    return spec;
}

} // namespace perfbench
