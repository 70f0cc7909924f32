/**
 * @file
 * Domain example 1: recovering a Bernstein-Vazirani secret key from
 * a deeply noisy execution.
 *
 * Shows the full production pipeline as one api::ExperimentSpec: the
 * workload table builds and routes the oracle circuit onto a
 * line-connectivity device (SWAPs inserted automatically), the
 * backend spec dials in an unhealthy machine with both stochastic
 * and correlated-burst noise, and the mitigation chain uses HAMMER
 * to pull the key back out of a histogram where it is nearly buried.
 */

#include <cstdio>

#include "api/api.hpp"

int
main()
{
    using namespace hammer;

    const int n = 12;
    const char *secret = "101101110011";

    // A fairly unhealthy machine: elevated stochastic rates plus a
    // correlated double-flip burst on two adjacent bits.
    noise::ChannelParams channel;
    channel.burstPattern = 0b000000011000;
    channel.burstProbability = 0.08;

    api::ExperimentSpec spec;
    spec.workload = std::string("bv:12:") + secret;
    spec.backend = "channel";
    spec.backendSpec.model = noise::machinePreset("machineB").scaled(1.5);
    spec.backendSpec.channelParams = channel;
    spec.backendSpec.shots = api::smokeShots(16384);
    spec.backendSpec.seed = 7;
    spec.mitigation = "hammer";

    const api::Result result = api::Pipeline().run(spec);

    // The pipeline routed the circuit for us; the device only talks
    // to nearest neighbours, so the router inserted SWAP chains
    // (this is what makes deep BV circuits fragile on hardware).
    const auto &routed = result.workload->routed;
    std::printf("BV-%d routed: depth %d, %d two-qubit gates "
                "(%d SWAPs inserted)\n",
                n, routed.circuit.depth(),
                routed.circuit.gateCounts().twoQubit,
                routed.addedSwaps);

    std::printf("\nsecret key       : %s\n", secret);
    std::printf("baseline         : PST %.4f, IST %.3f, EHD %.3f\n",
                result.pstRaw, result.istRaw, result.ehdRaw);
    std::printf("after HAMMER     : PST %.4f, IST %.3f, EHD %.3f\n",
                result.pstMitigated, result.istMitigated,
                result.ehdMitigated);

    const auto top = result.mitigated.topOutcome();
    std::printf("\ninferred key     : %s (P = %.3f) -> %s\n",
                common::toBitstring(top.outcome, n).c_str(),
                top.probability,
                result.workload->isCorrect(top.outcome)
                    ? "CORRECT" : "incorrect");
    return 0;
}
