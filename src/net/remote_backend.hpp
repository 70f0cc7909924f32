/**
 * @file
 * hammer::net — the `remote` backend: ExecutionService jobs executed
 * on a shard fleet.
 *
 * enableRemoteBackend() installs the process-wide api::RemoteExecutor
 * hook (the seam ExecutionService::runJob dispatches backend ==
 * "remote" through): the spec is serialized as one protocol spec
 * line — with `backend` rewritten to the delegate named by
 * BackendSpec::serviceBackend — routed through the given
 * ShardRouter, and the shard's Result line parsed back with
 * api::resultFromJson.  Because the wire carries the same line a
 * local --serve would parse and the serving stack is deterministic,
 * a `remote` job's Result is bit-identical (modulo label/timings) to
 * running the delegate backend locally.
 *
 * The layering mirrors the FaultInjector seam: api owns the hook
 * type and the dispatch point, net owns the transport, and neither
 * links the other's internals.
 */

#ifndef HAMMER_NET_REMOTE_BACKEND_HPP
#define HAMMER_NET_REMOTE_BACKEND_HPP

#include <memory>
#include <string>

#include "api/pipeline.hpp"
#include "net/router.hpp"

namespace hammer::net {

/**
 * Serialize @p spec as the protocol line a `remote` job sends: a
 * JSON spec-line object whose "backend" is the delegate
 * (spec.backendSpec.serviceBackend).
 *
 * @throws std::invalid_argument when the spec carries state a line
 *         cannot describe (prebuilt workload/mitigator, explicit
 *         noise model or channel params) or when the delegate name
 *         is empty or "remote".
 */
std::string remoteSpecLine(const api::ExperimentSpec &spec);

/** Behaviour knobs for the remote backend hook. */
struct RemoteBackendOptions
{
    /**
     * When every shard's circuit breaker is open (the router fails
     * fast with BreakerOpenError), run the job locally through a
     * Pipeline over the global registries instead of failing.  The
     * fallback parses the exact spec line the wire would have
     * carried, so its histograms are bit-identical to the remote
     * result — but the Result comes back flagged degraded = true
     * (and is never silently substituted for a remote one).  Off by
     * default: a breaker-open fleet fails loudly.
     */
    bool degradedLocalFallback = false;
};

/**
 * Install the RemoteExecutor hook over @p router.  The router must
 * outlive the hook (the shared_ptr keeps it alive); re-enabling
 * replaces the previous hook.
 */
void enableRemoteBackend(std::shared_ptr<ShardRouter> router,
                         RemoteBackendOptions options = {});

/** Clear the hook: `remote` submits start failing at the boundary. */
void disableRemoteBackend();

} // namespace hammer::net

#endif // HAMMER_NET_REMOTE_BACKEND_HPP
