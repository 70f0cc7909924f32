/**
 * @file
 * Circuit compilation for the state-vector engine.
 *
 * A CompiledCircuit lowers a Circuit into a stream of kernel ops:
 * every gate's 2x2 matrix is resolved once at compile time (the
 * per-circuit gate-matrix cache — re-running the compiled stream,
 * e.g. once per noise trajectory, never recomputes trig), each op is
 * classified onto the cheapest StateVector kernel (diagonal / phase /
 * permutation / dense pair), and — when fusion is enabled — chains of
 * adjacent single-qubit gates on the same qubit collapse into one
 * fused Mat2 op.
 *
 * Fusion reassociates floating-point arithmetic (a fused chain is one
 * matrix product instead of successive applications), so fused
 * execution matches unfused execution only to ~1e-12.  Unfused
 * compilation emits exactly one op per source gate, in source order,
 * with bit-identical amplitudes to gate-by-gate StateVector
 * application — the property the checkpointed trajectory replay
 * engine (noise::ReplayEngine) builds on.
 */

#ifndef HAMMER_SIM_COMPILED_HPP
#define HAMMER_SIM_COMPILED_HPP

#include <cstddef>
#include <vector>

#include "sim/circuit.hpp"
#include "sim/statevector.hpp"

namespace hammer::sim {

/** Which StateVector kernel executes an op. */
enum class KernelKind
{
    Mat1q,  ///< Dense 2x2 pair kernel (H, Rx, Ry, fused products).
    Diag,   ///< diag(d0, d1) — Rz and fused diagonal chains.
    Phase,  ///< diag(1, p) — Z/S/Sdg/T/Tdg; touches only the |1> half.
    PauliX, ///< Pure permutation.
    PauliY, ///< Permutation with +-i phases.
    CX,     ///< Controlled-X permutation.
    CZ,     ///< Quarter-space sign flip.
    Swap,   ///< Pair permutation.
};

/**
 * One executable kernel op.
 *
 * The matrix slot doubles as the parameter store: Mat1q uses all four
 * entries, Diag uses m[0]/m[3], Phase uses m[3], permutations use
 * none.
 */
struct CompiledOp
{
    KernelKind kind;
    int q0;
    int q1 = -1;
    Mat2 m{};
};

/** Compilation switches. */
struct CompileOptions
{
    /**
     * Fuse chains of adjacent single-qubit gates on the same qubit
     * into one Mat2 (flushed when a two-qubit gate touches the
     * qubit).  Disable for op-per-gate streams (trajectory replay).
     */
    bool fuse1q = true;
};

/** What compilation did to the gate stream. */
struct CompileStats
{
    std::size_t sourceGates = 0; ///< Gates in the input circuit.
    std::size_t ops = 0;         ///< Kernel ops emitted.
    std::size_t fused1q = 0;     ///< 1q gates absorbed into a chain.
    std::size_t specialised = 0; ///< Ops not using the dense kernel.

    /** Source gates per emitted op (>= 1; 1 when nothing fused). */
    double fusionRatio() const
    {
        return ops == 0 ? 1.0
                        : static_cast<double>(sourceGates) /
                              static_cast<double>(ops);
    }
};

/**
 * A circuit lowered to classified kernel ops.
 */
class CompiledCircuit
{
  public:
    /** Lower @p circuit according to @p options. */
    static CompiledCircuit compile(const Circuit &circuit,
                                   const CompileOptions &options = {});

    int numQubits() const { return numQubits_; }
    const std::vector<CompiledOp> &ops() const { return ops_; }
    const CompileStats &stats() const { return stats_; }

    /** Apply ops [begin, end) to @p state in order. */
    void apply(StateVector &state, std::size_t begin,
               std::size_t end) const;

    /** Apply every op to @p state. */
    void apply(StateVector &state) const
    {
        apply(state, 0, ops_.size());
    }

    /** Run from |0...0> and return the final state. */
    StateVector run() const;

  private:
    explicit CompiledCircuit(int num_qubits)
        : numQubits_(num_qubits)
    {
    }

    int numQubits_;
    std::vector<CompiledOp> ops_;
    CompileStats stats_;
};

/** Execute one op on @p state (the kernel dispatch). */
void applyOp(StateVector &state, const CompiledOp &op);

/**
 * Classify a single-qubit unitary onto the cheapest kernel (exact
 * structural tests on the matrix entries; no tolerance).
 */
CompiledOp classify1q(int q, const Mat2 &m);

/** Row-major 2x2 complex matrix product a*b. */
Mat2 matMul(const Mat2 &a, const Mat2 &b);

} // namespace hammer::sim

#endif // HAMMER_SIM_COMPILED_HPP
