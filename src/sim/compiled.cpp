#include "sim/compiled.hpp"

#include "common/logging.hpp"

namespace hammer::sim {

using common::panic;

Mat2
matMul(const Mat2 &a, const Mat2 &b)
{
    return {a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]};
}

CompiledOp
classify1q(int q, const Mat2 &m)
{
    const Amp zero(0.0);
    if (m[1] == zero && m[2] == zero) {
        if (m[0] == Amp(1.0))
            return {KernelKind::Phase, q, -1, m};
        return {KernelKind::Diag, q, -1, m};
    }
    if (m[0] == zero && m[3] == zero) {
        if (m[1] == Amp(1.0) && m[2] == Amp(1.0))
            return {KernelKind::PauliX, q, -1, m};
        if (m[1] == Amp(0.0, -1.0) && m[2] == Amp(0.0, 1.0))
            return {KernelKind::PauliY, q, -1, m};
    }
    return {KernelKind::Mat1q, q, -1, m};
}

namespace {

CompiledOp
make2q(const Gate &g)
{
    switch (g.kind) {
      case GateKind::CX:
        return {KernelKind::CX, g.q0, g.q1, {}};
      case GateKind::CZ:
        return {KernelKind::CZ, g.q0, g.q1, {}};
      case GateKind::Swap:
        return {KernelKind::Swap, g.q0, g.q1, {}};
      default:
        break;
    }
    panic("CompiledCircuit: not a two-qubit gate");
}

} // namespace

CompiledCircuit
CompiledCircuit::compile(const Circuit &circuit,
                         const CompileOptions &options)
{
    CompiledCircuit compiled(circuit.numQubits());
    compiled.stats_.sourceGates = circuit.size();
    compiled.ops_.reserve(circuit.size()); // fusion only merges

    const auto n = static_cast<std::size_t>(circuit.numQubits());
    std::vector<Mat2> pending(n);
    std::vector<int> chain(n, 0);

    auto flush = [&](int q) {
        const auto i = static_cast<std::size_t>(q);
        if (chain[i] == 0)
            return;
        compiled.ops_.push_back(classify1q(q, pending[i]));
        compiled.stats_.fused1q +=
            static_cast<std::size_t>(chain[i] - 1);
        chain[i] = 0;
    };

    for (const Gate &g : circuit.gates()) {
        if (g.isTwoQubit()) {
            flush(g.q0);
            flush(g.q1);
            compiled.ops_.push_back(make2q(g));
        } else if (options.fuse1q) {
            const auto i = static_cast<std::size_t>(g.q0);
            const Mat2 m = gateMatrix(g.kind, g.theta);
            pending[i] = chain[i] == 0 ? m : matMul(m, pending[i]);
            ++chain[i];
        } else {
            compiled.ops_.push_back(
                classify1q(g.q0, gateMatrix(g.kind, g.theta)));
        }
    }
    // Trailing chains flush in qubit order (1q gates on distinct
    // qubits commute, so any fixed order is equivalent).
    for (std::size_t q = 0; q < n; ++q)
        flush(static_cast<int>(q));

    compiled.stats_.ops = compiled.ops_.size();
    for (const CompiledOp &op : compiled.ops_) {
        if (op.kind != KernelKind::Mat1q)
            ++compiled.stats_.specialised;
    }
    return compiled;
}

void
applyOp(StateVector &state, const CompiledOp &op)
{
    switch (op.kind) {
      case KernelKind::Mat1q:
        state.apply1q(op.m, op.q0);
        return;
      case KernelKind::Diag:
        state.applyDiagonal(op.m[0], op.m[3], op.q0);
        return;
      case KernelKind::Phase:
        state.applyPhase(op.m[3], op.q0);
        return;
      case KernelKind::PauliX:
        state.applyX(op.q0);
        return;
      case KernelKind::PauliY:
        state.applyY(op.q0);
        return;
      case KernelKind::CX:
        state.applyCX(op.q0, op.q1);
        return;
      case KernelKind::CZ:
        state.applyCZ(op.q0, op.q1);
        return;
      case KernelKind::Swap:
        state.applySwap(op.q0, op.q1);
        return;
    }
    panic("applyOp: unknown kernel kind");
}

void
CompiledCircuit::apply(StateVector &state, std::size_t begin,
                       std::size_t end) const
{
    for (std::size_t i = begin; i < end; ++i)
        applyOp(state, ops_[i]);
}

StateVector
CompiledCircuit::run() const
{
    StateVector state(numQubits_);
    apply(state);
    return state;
}

} // namespace hammer::sim
