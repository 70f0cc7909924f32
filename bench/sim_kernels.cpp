/**
 * @file
 * Simulation-engine microbenchmark: SIMD kernel tiers, specialised
 * kernels, the fusion pass and checkpointed trajectory replay,
 * against replicas of the pre-overhaul engine (branchy generic
 * kernels, circuit-per-trajectory re-simulation, binary-search
 * sampling).
 *
 * All speedup gates are ops-reduction or serial-wall-clock based —
 * nothing here depends on thread scaling, so the checks are safe on
 * a single-core CI runner.  Wall-clock perf gates are disabled under
 * sanitizers (their instrumentation skews kernels unevenly) and when
 * only the scalar tier is available; bit-identity checks always run.
 * Emits BENCH_sim.json in smoke mode so CI tracks the engine's perf
 * trajectory push over push, including per-kernel effective GB/s per
 * ISA tier.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "noise/readout.hpp"
#include "noise/replay.hpp"
#include "noise/trajectory_sampler.hpp"
#include "sim/compiled.hpp"
#include "sim/kernels.hpp"
#include "sim/statevector.hpp"
#include "support/report.hpp"
#include "support/workloads.hpp"

// Sanitizer instrumentation slows kernels unevenly (shadow-memory
// traffic scales with loads/stores, not arithmetic), so wall-clock
// floors are meaningless on those CI legs.
#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HAMMER_BENCH_SANITIZED 1
#else
#define HAMMER_BENCH_SANITIZED 0
#endif

namespace {

using namespace hammer;
using common::Bits;
using common::Rng;
using sim::Amp;
using sim::GateKind;
using sim::Mat2;
using sim::StateVector;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count();
}

// ---------------------------------------------------------------------------
// The pre-overhaul generic kernel: per-element branch over all 2^n
// indices, matrix recomputed per application.
// ---------------------------------------------------------------------------

// noinline: the historical kernels lived out of line in the library;
// letting the replica inline here would constant-fold the matrix into
// the loop and misrepresent the baseline.
__attribute__((noinline)) void
genericApply1q(std::vector<Amp> &amps, const Mat2 &m, int q)
{
    const std::size_t mask = std::size_t{1} << q;
    for (std::size_t i = 0; i < amps.size(); ++i) {
        if (i & mask)
            continue;
        const std::size_t j = i | mask;
        const Amp a0 = amps[i];
        const Amp a1 = amps[j];
        amps[i] = m[0] * a0 + m[1] * a1;
        amps[j] = m[2] * a0 + m[3] * a1;
    }
}

__attribute__((noinline)) void
genericApplyCX(std::vector<Amp> &amps, int control, int target)
{
    const std::size_t cmask = std::size_t{1} << control;
    const std::size_t tmask = std::size_t{1} << target;
    for (std::size_t i = 0; i < amps.size(); ++i) {
        if ((i & cmask) && !(i & tmask))
            std::swap(amps[i], amps[i | tmask]);
    }
}

std::vector<Amp>
randomState(int n, Rng &rng)
{
    std::vector<Amp> amps(std::size_t{1} << n);
    for (Amp &a : amps)
        a = Amp(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    return amps;
}

/** One kernel-throughput comparison row. */
struct KernelRow
{
    const char *name;
    double generic_gps;
    double specialised_gps;
    double speedup() const
    {
        return generic_gps > 0.0 ? specialised_gps / generic_gps
                                 : 0.0;
    }
};

/**
 * Gate/s of @p apply_generic vs @p apply_specialised, applied `reps`
 * times across every qubit in turn.
 */
template <typename Generic, typename Specialised>
KernelRow
timeKernel(const char *name, int n, int reps, Rng &rng,
           Generic &&apply_generic, Specialised &&apply_specialised)
{
    auto generic_state = randomState(n, rng);
    StateVector specialised_state(n);
    for (std::size_t i = 0; i < generic_state.size(); ++i)
        specialised_state.setAmplitude(i, generic_state[i]);

    auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r)
        apply_generic(generic_state, r % n);
    const double t_generic = secondsSince(start);

    start = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r)
        apply_specialised(specialised_state, r % n);
    const double t_specialised = secondsSince(start);

    return {name,
            t_generic > 0.0 ? reps / t_generic : 0.0,
            t_specialised > 0.0 ? reps / t_specialised : 0.0};
}

} // namespace

int
main()
{
    std::puts("== Simulation engine: kernels, fusion, checkpointed "
              "replay ==");
    bench::BenchReport report("sim");
    Rng rng(0x51D);
    const bool smoke = bench::smokeMode();

    // -- 1. Per-kernel gate throughput: branchy generic 2x2 vs
    //       specialised kernels, same amplitudes.
    const int n = smoke ? 12 : 16;
    const int reps = smoke ? 200 : 400;
    std::vector<KernelRow> rows;
    rows.push_back(timeKernel(
        "h_dense", n, reps, rng,
        [](std::vector<Amp> &amps, int q) {
            genericApply1q(amps, sim::gateMatrix(GateKind::H), q);
        },
        [](StateVector &sv, int q) {
            sv.apply1q(sim::gateMatrix(GateKind::H), q);
        }));
    rows.push_back(timeKernel(
        "rz_diag", n, reps, rng,
        [](std::vector<Amp> &amps, int q) {
            // The historical engine recomputed the trig per
            // application; keep that cost in the baseline.
            genericApply1q(amps, sim::gateMatrix(GateKind::Rz, 0.7),
                           q);
        },
        [](StateVector &sv, int q) {
            static const Mat2 m = sim::gateMatrix(GateKind::Rz, 0.7);
            sv.applyDiagonal(m[0], m[3], q);
        }));
    rows.push_back(timeKernel(
        "t_phase", n, reps, rng,
        [](std::vector<Amp> &amps, int q) {
            genericApply1q(amps, sim::gateMatrix(GateKind::T), q);
        },
        [](StateVector &sv, int q) {
            sv.applyPhase(sim::gateMatrix(GateKind::T)[3], q);
        }));
    rows.push_back(timeKernel(
        "x_perm", n, reps, rng,
        [](std::vector<Amp> &amps, int q) {
            genericApply1q(amps, sim::gateMatrix(GateKind::X), q);
        },
        [](StateVector &sv, int q) { sv.applyX(q); }));
    rows.push_back(timeKernel(
        "cx_perm", n, reps, rng,
        [n](std::vector<Amp> &amps, int q) {
            genericApplyCX(amps, q, (q + 1) % n);
        },
        [n](StateVector &sv, int q) {
            sv.applyCX(q, (q + 1) % n);
        }));

    common::Table kernel_table(
        {"kernel", "generic_Mgates_s", "specialised_Mgates_s", "x"});
    for (const KernelRow &row : rows) {
        kernel_table.addRow(
            {row.name, common::Table::fmt(row.generic_gps / 1e6, 2),
             common::Table::fmt(row.specialised_gps / 1e6, 2),
             common::Table::fmt(row.speedup(), 2)});
        const std::string tag = std::string("_") + row.name;
        report.metric("kernel_generic_gps" + tag, row.generic_gps);
        report.metric("kernel_specialised_gps" + tag,
                      row.specialised_gps);
        report.metric("speedup_kernel" + tag, row.speedup());
    }
    kernel_table.print(std::cout);

    // -- 2. ISA tier sweep: every supported kernel tier over every
    //       SoA kernel, reported as effective GB/s (bytes the kernel
    //       must move per application / measured seconds).  Always
    //       run at 16 qubits — the acceptance floor is defined on
    //       16+ qubit sweeps, where the planes outgrow L1 and the
    //       comparison reflects real workloads.  Per-kernel floors
    //       gate the best tier against scalar: the dense 2x2 kernel
    //       carries the 2x requirement; the diagonal kernel does a
    //       quarter of the arithmetic per byte and saturates memory
    //       earlier, so it gets a lower floor; the permutation/phase
    //       kernels are pure data movement and are only reported.
    struct TierKernel
    {
        const char *name;
        double bytesPerDim; // moved per amplitude per application
        double floorBest;   // min x_scalar on the best tier (0 = off)
        double floorSse2;   // min x_scalar when sse2 IS the best tier
        std::function<void(StateVector &, int)> apply;
    };
    const int n_tier = 16;
    const int reps_tier = smoke ? 60 : 200;
    const Mat2 h_mat = sim::gateMatrix(GateKind::H);
    const Mat2 rz_mat = sim::gateMatrix(GateKind::Rz, 0.7);
    const std::vector<TierKernel> tier_kernels = {
        {"apply1q", 32.0, 2.0, 1.4,
         [&](StateVector &sv, int q) { sv.apply1q(h_mat, q); }},
        // Typically ~1.9-2.3x on AVX2 but bandwidth-bound, so a
        // descheduled run can dip past 1.6; the floor only needs to
        // catch a fall back to scalar (1.0x), not track the mean.
        {"diag", 32.0, 1.45, 1.3,
         [&](StateVector &sv, int q) {
             sv.applyDiagonal(rz_mat[0], rz_mat[3], q);
         }},
        {"phase", 16.0, 0.0, 0.0,
         [](StateVector &sv, int q) {
             sv.applyPhase(Amp(0.6, -0.8), q);
         }},
        {"x", 32.0, 0.0, 0.0,
         [](StateVector &sv, int q) { sv.applyX(q); }},
        {"y", 32.0, 0.0, 0.0,
         [](StateVector &sv, int q) { sv.applyY(q); }},
        {"cx", 16.0, 0.0, 0.0,
         [n_tier](StateVector &sv, int q) {
             sv.applyCX(q, (q + 1) % n_tier);
         }},
        {"cz", 8.0, 0.0, 0.0,
         [n_tier](StateVector &sv, int q) {
             sv.applyCZ(q, (q + 1) % n_tier);
         }},
        {"swap", 16.0, 0.0, 0.0,
         [n_tier](StateVector &sv, int q) {
             sv.applySwap(q, (q + 1) % n_tier);
         }},
    };

    const auto tiers = sim::supportedTiers();
    const double dim_bytes_base =
        static_cast<double>(std::size_t{1} << n_tier);
    // seconds[kernel][tier], best of 5 timing passes.  The speedup
    // floors gate on these numbers, so contention on a busy runner
    // must hit every tier alike: each pass times all tiers back to
    // back, in the opposite order to the pass before.
    std::map<std::string, std::map<sim::KernelTier, double>> tier_secs;
    for (const TierKernel &k : tier_kernels) {
        StateVector sv(n_tier);
        {
            Rng fill(0xF111);
            for (std::size_t i = 0; i < sv.dimension(); ++i)
                sv.setAmplitude(i, Amp(fill.uniform(-1.0, 1.0),
                                       fill.uniform(-1.0, 1.0)));
        }
        std::map<sim::KernelTier, double> &best = tier_secs[k.name];
        for (int pass = 0; pass < 5; ++pass) {
            for (std::size_t t = 0; t < tiers.size(); ++t) {
                const sim::KernelTier tier =
                    tiers[pass % 2 ? tiers.size() - 1 - t : t];
                sim::setActiveKernels(sim::kernelsForTier(tier));
                const auto start = std::chrono::steady_clock::now();
                for (int r = 0; r < reps_tier; ++r)
                    k.apply(sv, r % n_tier);
                const double secs = secondsSince(start);
                const auto [slot, fresh] = best.try_emplace(tier, secs);
                if (!fresh)
                    slot->second = std::min(slot->second, secs);
            }
        }
    }
    sim::setActiveKernels(nullptr);

    const sim::KernelTier best_tier = sim::bestSupportedTier();
    report.note("kernel_tier", sim::tierName(best_tier));
    const bool perf_gates =
        !HAMMER_BENCH_SANITIZED && best_tier != sim::KernelTier::Scalar;
    if (!perf_gates) {
        std::puts(HAMMER_BENCH_SANITIZED
                      ? "note: sanitizer build — wall-clock perf "
                        "gates disabled"
                      : "note: scalar-only host — SIMD perf gates "
                        "disabled");
    }

    common::Table tier_table({"kernel", "tier", "GB_s", "x_scalar"});
    bool tier_gate_failed = false;
    for (const TierKernel &k : tier_kernels) {
        const double scalar_secs =
            tier_secs[k.name][sim::KernelTier::Scalar];
        for (const sim::KernelTier tier : tiers) {
            const double secs = tier_secs[k.name][tier];
            const double gbps = secs > 0.0
                ? k.bytesPerDim * dim_bytes_base * reps_tier / secs /
                    1e9
                : 0.0;
            const double x =
                secs > 0.0 ? scalar_secs / secs : 0.0;
            tier_table.addRow({k.name, sim::tierName(tier),
                               common::Table::fmt(gbps, 2),
                               common::Table::fmt(x, 2)});
            const std::string tag =
                std::string("_") + k.name + "_" + sim::tierName(tier);
            report.metric("kernel_gbps" + tag, gbps);
            report.metric("kernel_x" + tag, x);

            if (tier == best_tier && perf_gates) {
                const double floor =
                    tier == sim::KernelTier::Sse2 ? k.floorSse2
                                                  : k.floorBest;
                if (floor > 0.0 && x < floor) {
                    std::printf("ERROR: %s on %s tier reached only "
                                "%.2fx scalar (floor %.1fx)\n",
                                k.name, sim::tierName(tier), x,
                                floor);
                    tier_gate_failed = true;
                }
            }
        }
    }
    tier_table.print(std::cout);
    if (tier_gate_failed)
        return 1;

    // -- 3. Fusion on the paper's circuit families.
    const int bv_bits = smoke ? 10 : 14;
    const api::Workload bv = api::makeBvWorkload(
        bv_bits, (Bits{1} << bv_bits) - 1, "machineA");
    const auto qaoa_sweep =
        api::makeQaoa3RegSweep({smoke ? 8 : 12}, {2}, 1, rng);
    const api::Workload &qaoa = qaoa_sweep.front();
    // Mirror circuits interleave dense random 1q layers — the family
    // where adjacent-1q fusion actually collapses chains (bv/qaoa
    // separate their 1q gates with entanglers, so ~1x is expected
    // there).
    const api::Workload mirror =
        api::makeMirrorWorkload(smoke ? 8 : 12, smoke ? 6 : 10, 0.3,
                                rng);

    common::Table fusion_table({"circuit", "gates", "ops",
                                "fusion_x", "run_x"});
    for (const api::Workload *wl : {&bv, &qaoa, &mirror}) {
        const auto &circuit = wl->routed.circuit;
        const auto fused = sim::CompiledCircuit::compile(circuit);
        const auto plain = sim::CompiledCircuit::compile(
            circuit, {.fuse1q = false});

        const int run_reps = smoke ? 40 : 100;
        auto start = std::chrono::steady_clock::now();
        for (int r = 0; r < run_reps; ++r)
            plain.run();
        const double t_plain = secondsSince(start);
        start = std::chrono::steady_clock::now();
        for (int r = 0; r < run_reps; ++r)
            fused.run();
        const double t_fused = secondsSince(start);
        const double run_speedup =
            t_fused > 0.0 ? t_plain / t_fused : 0.0;

        fusion_table.addRow(
            {wl->family,
             common::Table::fmt(
                 static_cast<long long>(circuit.size())),
             common::Table::fmt(
                 static_cast<long long>(fused.stats().ops)),
             common::Table::fmt(fused.stats().fusionRatio(), 2),
             common::Table::fmt(run_speedup, 2)});
        report.metric("fusion_ratio_" + wl->family,
                      fused.stats().fusionRatio());
        report.metric("fused_run_speedup_" + wl->family, run_speedup);
    }
    fusion_table.print(std::cout);

    // -- 4. Checkpointed trajectory replay on a trajectory-heavy
    //       bv/qaoa sweep at paper-scale error rates, vs a replica
    //       of the circuit-per-trajectory engine on the same forked
    //       per-trajectory streams.  One thread throughout: both the
    //       wall-clock and the ops-reduction comparison are
    //       single-core meaningful.
    const noise::NoiseModel model = noise::machinePreset("machineA");
    const int trajectories = smoke ? 120 : 400;
    const int shots = smoke ? 4000 : 20000;

    std::vector<api::Workload> sweep;
    sweep.push_back(bv);
    sweep.push_back(qaoa);

    common::Table replay_table({"workload", "hit_rate",
                                "replayed_frac", "work_x", "wall_x"});
    std::uint64_t total_full = 0;
    std::uint64_t total_replayed = 0;
    for (const api::Workload &wl : sweep) {
        noise::TrajectorySampler sampler(model, trajectories);
        Rng run_rng(0xBEEF);
        auto start = std::chrono::steady_clock::now();
        const auto fast = sampler.sample(
            wl.routed, wl.measuredQubits, shots, run_rng, 1);
        const double t_fast = secondsSince(start);

        // Historical engine replica: fresh noisy Circuit, full
        // simulation from |0>, per-shot binary search on a
        // materialised CDF, trajectory t on stream master.fork(t).
        Rng slow_rng(0xBEEF);
        start = std::chrono::steady_clock::now();
        const Rng master = slow_rng.split();
        core::CountAccumulator counts;
        int assigned = 0;
        const int qubits = wl.routed.circuit.numQubits();
        const Bits mask = (Bits{1} << wl.measuredQubits) - 1;
        for (int t = 0; t < trajectories; ++t) {
            const int quota =
                (shots - assigned) / (trajectories - t);
            if (quota == 0)
                continue;
            assigned += quota;
            Rng stream = master.fork(static_cast<std::uint64_t>(t));
            const sim::Circuit instance =
                sampler.noisyInstance(wl.routed.circuit, stream);
            StateVector state(qubits);
            for (const sim::Gate &g : instance.gates())
                state.applyGate(g);
            std::vector<double> cdf(state.dimension());
            double acc = 0.0;
            for (std::size_t i = 0; i < state.dimension(); ++i) {
                acc += std::norm(state.amplitude(i));
                cdf[i] = acc;
            }
            std::vector<Bits> raw;
            raw.reserve(static_cast<std::size_t>(quota));
            for (int s = 0; s < quota; ++s) {
                const double r = stream.uniform() * acc;
                const auto it =
                    std::upper_bound(cdf.begin(), cdf.end(), r);
                raw.push_back(it == cdf.end()
                    ? cdf.size() - 1
                    : static_cast<std::size_t>(it - cdf.begin()));
            }
            for (Bits physical : raw) {
                physical = noise::applyReadoutError(
                    physical, qubits, model, stream);
                counts.add(wl.routed.toLogical(physical) & mask);
            }
        }
        const auto slow = counts.toDistribution(wl.measuredQubits);
        const double t_slow = secondsSince(start);

        // The two engines must agree bit for bit.
        if (fast.support() != slow.support()) {
            std::puts("ERROR: replay and full-sim histograms "
                      "disagree");
            return 1;
        }
        for (const auto &e : fast.entries()) {
            if (e.probability != slow.probability(e.outcome)) {
                std::puts("ERROR: replay and full-sim histograms "
                          "disagree");
                return 1;
            }
        }

        const noise::ReplayStats &stats = sampler.replayStats();
        const double work_reduction = stats.gatesReplayed > 0
            ? static_cast<double>(stats.gatesFull) /
                  static_cast<double>(stats.gatesReplayed)
            : 0.0;
        const double wall_speedup =
            t_fast > 0.0 ? t_slow / t_fast : 0.0;
        total_full += stats.gatesFull;
        total_replayed += stats.gatesReplayed;

        replay_table.addRow(
            {wl.family, common::Table::fmt(stats.hitRate(), 3),
             common::Table::fmt(stats.replayedFraction(), 3),
             common::Table::fmt(work_reduction, 2),
             common::Table::fmt(wall_speedup, 2)});
        report.metric("replay_hit_rate_" + wl.family,
                      stats.hitRate());
        report.metric("replay_gate_fraction_" + wl.family,
                      stats.replayedFraction());
        report.metric("work_reduction_" + wl.family, work_reduction);
        report.metric("wall_speedup_" + wl.family, wall_speedup);
    }
    replay_table.print(std::cout);

    const double overall_reduction = total_replayed > 0
        ? static_cast<double>(total_full) /
              static_cast<double>(total_replayed)
        : 0.0;
    report.metric("work_reduction_overall", overall_reduction);
    std::printf("\noverall simulated-gate work reduction: %.2fx\n",
                overall_reduction);

    // Acceptance gate: the replay engine must at least halve the
    // simulated-gate work at paper-scale error rates.  Ops-based, so
    // the check holds on any machine, single-core included.
    if (overall_reduction < 2.0) {
        std::printf("ERROR: expected >= 2x simulated-gate work "
                    "reduction, got %.2fx\n", overall_reduction);
        return 1;
    }
    return 0;
}
