#include "api/backend.hpp"

#include <algorithm>
#include <iterator>

#include "api/autoplan.hpp"
#include "common/logging.hpp"
#include "noise/exact_sampler.hpp"
#include "noise/trajectory_sampler.hpp"

namespace hammer::api {

using common::fatal;
using common::require;

noise::NoiseModel
resolveNoiseModel(const BackendSpec &spec)
{
    if (spec.model)
        return *spec.model;
    require(spec.noiseScale >= 0.0,
            "BackendSpec: noiseScale must be >= 0");
    return noise::machinePreset(spec.machine).scaled(spec.noiseScale);
}

void
validateBackendSpec(const BackendSpec &spec)
{
    require(spec.shots > 0,
            "BackendSpec: shots must be > 0 (got " +
                std::to_string(spec.shots) + ")");
    require(spec.trajectories > 0,
            "BackendSpec: trajectories must be > 0 (got " +
                std::to_string(spec.trajectories) + ")");
    require(spec.threads >= 0,
            "BackendSpec: threads must be >= 0 (got " +
                std::to_string(spec.threads) + ")");
    require(spec.noiseScale >= 0.0,
            "BackendSpec: noiseScale must be >= 0");
}

namespace {

using SamplerPtr = std::unique_ptr<noise::NoisySampler>;

struct Backend
{
    const char *name;
    SamplerPtr (*build)(const BackendSpec &spec);
};

/** The built-in backends, sorted by name. */
const Backend kBackends[] = {
    {"auto",
     [](const BackendSpec &spec) -> SamplerPtr {
         return std::make_unique<AutoSampler>(spec);
     }},
    {"channel",
     [](const BackendSpec &spec) -> SamplerPtr {
         return std::make_unique<noise::ChannelSampler>(
             resolveNoiseModel(spec),
             spec.channelParams.value_or(noise::ChannelParams{}));
     }},
    {"exact",
     [](const BackendSpec &spec) -> SamplerPtr {
         return std::make_unique<noise::ExactSampler>(
             resolveNoiseModel(spec));
     }},
    {"trajectory",
     [](const BackendSpec &spec) -> SamplerPtr {
         return std::make_unique<noise::TrajectorySampler>(
             resolveNoiseModel(spec), spec.trajectories);
     }},
};

} // namespace

std::unique_ptr<noise::NoisySampler>
makeBackend(const std::string &name, const BackendSpec &spec)
{
    const auto backend =
        std::find_if(std::begin(kBackends), std::end(kBackends),
                     [&](const Backend &b) { return name == b.name; });
    if (backend == std::end(kBackends)) {
        std::string known;
        for (const Backend &b : kBackends) {
            if (!known.empty())
                known += ", ";
            known += b.name;
        }
        fatal("unknown backend '" + name + "' (known backends: " +
              known + ")");
    }
    validateBackendSpec(spec);
    return backend->build(spec);
}

std::vector<std::string>
backendNames()
{
    std::vector<std::string> names;
    for (const Backend &backend : kBackends)
        names.push_back(backend.name);
    return names;
}

} // namespace hammer::api
