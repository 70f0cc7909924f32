#include "net/remote_backend.hpp"

#include <stdexcept>
#include <utility>

#include "api/json.hpp"
#include "api/service.hpp"

namespace hammer::net {

std::string
remoteSpecLine(const api::ExperimentSpec &spec)
{
    const std::string &delegate = spec.backendSpec.serviceBackend;
    if (delegate.empty() || delegate == "remote")
        throw std::invalid_argument(
            "remote backend: serviceBackend names the delegate and "
            "must not be empty or 'remote' (got '" +
            delegate + "')");
    if (spec.workloadInstance.has_value() || spec.mitigator ||
        spec.backendSpec.model.has_value() ||
        spec.backendSpec.channelParams.has_value())
        throw std::invalid_argument(
            "remote backend: prebuilt workloads/mitigators and "
            "explicit noise models cannot cross the wire — use "
            "registry specs");

    api::JsonWriter line;
    line.beginObject();
    line.key("workload").value(spec.workload);
    line.key("backend").value(delegate);
    line.key("machine").value(spec.backendSpec.machine);
    line.key("noise_scale").value(spec.backendSpec.noiseScale);
    line.key("shots").value(spec.backendSpec.shots);
    line.key("trajectories").value(spec.backendSpec.trajectories);
    line.key("seed").value(spec.backendSpec.seed);
    line.key("mitigation").value(spec.mitigation);
    if (!spec.label.empty())
        line.key("label").value(spec.label);
    line.endObject();
    return line.str();
}

void
enableRemoteBackend(std::shared_ptr<ShardRouter> router,
                    RemoteBackendOptions options)
{
    if (!router)
        throw std::invalid_argument(
            "enableRemoteBackend: null router");
    api::setRemoteExecutor(
        [router = std::move(router), options](
            const api::ExperimentSpec &spec) -> api::Result {
            const std::string line = remoteSpecLine(spec);
            if (!options.degradedLocalFallback) {
                const std::uint64_t id = router->submit(line);
                return api::resultFromJson(router->wait(id));
            }
            try {
                const std::uint64_t id = router->submit(line);
                return api::resultFromJson(router->wait(id));
            } catch (const BreakerOpenError &) {
                // Degraded mode: every shard's breaker is open, so
                // serve the job from local compute.  Re-parsing the
                // wire line keeps the histograms bit-identical to
                // what a shard would have produced; the flag is the
                // only difference.
                api::SpecLine parsed = api::parseSpecLine(line);
                api::Result result =
                    api::Pipeline().run(parsed.spec);
                result.degraded = true;
                return result;
            }
        });
}

void
disableRemoteBackend()
{
    api::setRemoteExecutor(nullptr);
}

} // namespace hammer::net
