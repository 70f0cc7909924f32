#include "noise/replay.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace hammer::noise {

using common::require;
using common::Rng;
using sim::GateKind;
using sim::KernelKind;
using sim::StateVector;

namespace {

bool
isTwoQubitOp(const sim::CompiledOp &op)
{
    return op.kind == KernelKind::CX || op.kind == KernelKind::CZ ||
           op.kind == KernelKind::Swap;
}

void
applyPauli(StateVector &state, GateKind pauli, int qubit)
{
    switch (pauli) {
      case GateKind::X:
        state.applyX(qubit);
        return;
      case GateKind::Y:
        state.applyY(qubit);
        return;
      case GateKind::Z:
        state.applyPhase(sim::Amp(-1.0), qubit);
        return;
      default:
        break;
    }
    common::panic("ReplayEngine: error event is not a Pauli");
}

} // namespace

ReplayEngine::ReplayEngine(const sim::Circuit &circuit,
                           const NoiseModel &model,
                           const ReplayOptions &options)
    : model_(model),
      ops_(sim::CompiledCircuit::compile(circuit, {.fuse1q = false})),
      final_(circuit.numQubits())
{
    const std::size_t gates = ops_.ops().size();

    // Checkpoint interval from the memory budget: one dense state is
    // 2^n amplitudes; place as many evenly-spaced checkpoints as fit
    // (never after the last gate — the final state covers that).
    const std::size_t state_bytes =
        (std::size_t{1} << circuit.numQubits()) * sizeof(sim::Amp);
    const std::size_t max_checkpoints = std::min(
        gates > 0 ? gates - 1 : 0,
        options.checkpointBudgetBytes / state_bytes);
    if (max_checkpoints == 0) {
        interval_ = gates + 1; // no checkpoints: replay from scratch
    } else {
        interval_ = std::max<std::size_t>(
            1, (gates + max_checkpoints) / (max_checkpoints + 1));
    }

    // One clean pass, snapshotting along the way.
    for (std::size_t i = 0; i < gates; ++i) {
        ops_.apply(final_, i, i + 1);
        if ((i + 1) % interval_ == 0 && i + 1 < gates)
            checkpoints_.push_back(final_);
    }
    finalNorm_ = final_.normSquared();
}

std::vector<ErrorEvent>
ReplayEngine::drawErrors(Rng &rng) const
{
    std::vector<ErrorEvent> events;
    const GateKind paulis[] = {GateKind::X, GateKind::Y, GateKind::Z};

    // Draw-for-draw identical to noisyInstance: a Bernoulli per gate
    // (skipped entirely at zero rate), one uniform when it fires.
    const auto &ops = ops_.ops();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const sim::CompiledOp &op = ops[i];
        const auto index = static_cast<std::uint32_t>(i);
        if (isTwoQubitOp(op)) {
            // Two-qubit depolarising channel: one of the 15
            // non-identity two-qubit Paulis, uniformly.
            if (model_.p2q > 0.0 && rng.bernoulli(model_.p2q)) {
                const auto pick =
                    static_cast<int>(rng.uniformInt(15)) + 1;
                const int first = pick / 4; // 0..3 (I,X,Y,Z)
                const int second = pick % 4;
                if (first != 0)
                    events.push_back(
                        {index, paulis[first - 1], op.q0});
                if (second != 0)
                    events.push_back(
                        {index, paulis[second - 1], op.q1});
            }
        } else {
            // Single-qubit depolarising channel.
            if (model_.p1q > 0.0 && rng.bernoulli(model_.p1q)) {
                events.push_back(
                    {index, paulis[rng.uniformInt(3)], op.q0});
            }
        }
    }
    return events;
}

std::size_t
ReplayEngine::replayStart(const std::vector<ErrorEvent> &events) const
{
    const std::size_t gates = ops_.ops().size();
    if (events.empty())
        return gates;
    // The first error fires after gate g, so any prefix of length
    // <= g+1 is still clean; take the deepest stored checkpoint.
    const std::size_t clean_prefix = events.front().gateIndex + 1;
    const std::size_t k =
        std::min(clean_prefix / interval_, checkpoints_.size());
    return k * interval_;
}

StateVector
ReplayEngine::replay(const std::vector<ErrorEvent> &events) const
{
    require(!events.empty(),
            "ReplayEngine::replay: zero-error trajectories are "
            "served by cleanState()");
    const std::size_t gates = ops_.ops().size();
    const std::size_t start = replayStart(events);

    StateVector state = start == 0
        ? StateVector(ops_.numQubits())
        : checkpoints_[start / interval_ - 1];

    // Errors firing exactly at the checkpoint boundary (after gate
    // start-1, the last gate the checkpoint already covers) are
    // injected before the loop resumes at gate `start`.
    auto event = events.begin();
    while (event != events.end() && event->gateIndex < start) {
        applyPauli(state, event->pauli, event->qubit);
        ++event;
    }
    for (std::size_t i = start; i < gates; ++i) {
        ops_.apply(state, i, i + 1);
        while (event != events.end() && event->gateIndex == i) {
            applyPauli(state, event->pauli, event->qubit);
            ++event;
        }
    }
    return state;
}

} // namespace hammer::noise
