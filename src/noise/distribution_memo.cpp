#include "noise/distribution_memo.hpp"

#include <cstring>
#include <utility>

#include "sim/simulator.hpp"

namespace hammer::noise {

using common::Bits;

namespace {

/** Append the raw bytes of @p value to @p key. */
template <typename T>
void
appendBytes(std::string &key, const T &value)
{
    char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    key.append(bytes, sizeof(T));
}

/**
 * Exact (collision-free) memo key: @p tag, then @p prefix_fields,
 * then everything a simulation of @p routed depends on — width,
 * layout and gate stream.
 */
std::string
circuitKey(char tag, const circuits::RoutedCircuit &routed,
           const std::string &prefix_fields = {})
{
    std::string key(1, tag);
    key.reserve(64 + prefix_fields.size() +
                routed.circuit.gates().size() * 24);
    key += prefix_fields;
    appendBytes(key, routed.circuit.numQubits());
    for (const int physical : routed.logicalToPhysical)
        appendBytes(key, physical);
    for (const sim::Gate &g : routed.circuit.gates()) {
        appendBytes(key, static_cast<int>(g.kind));
        appendBytes(key, g.q0);
        appendBytes(key, g.q1);
        appendBytes(key, g.theta);
    }
    return key;
}

std::size_t
bytesOf(const CleanDistribution &clean)
{
    return clean.bytes();
}

std::size_t
bytesOf(const core::Distribution &exact)
{
    return sizeof(core::Distribution) +
           exact.entries().size() * sizeof(core::Entry);
}

} // namespace

CleanDistribution::CleanDistribution(
    const sim::StateVector &state, const circuits::RoutedCircuit &routed)
    : norm_(state.normSquared()),
      fallback_(routed.toLogical(state.dimension() - 1))
{
    sim::StateVector::SparseCdf cdf = state.sparseCdf();
    for (Bits &index : cdf.indices)
        index = routed.toLogical(index);
    outcomes_ = std::move(cdf.indices);
    prefix_ = std::move(cdf.prefix);
}

std::size_t
CleanDistribution::bytes() const
{
    return sizeof(CleanDistribution) +
           outcomes_.capacity() * sizeof(Bits) +
           prefix_.capacity() * sizeof(double);
}

DistributionMemo::DistributionMemo(std::size_t budget_bytes)
    : lru_(budget_bytes)
{
}

DistributionMemo &
DistributionMemo::shared()
{
    static DistributionMemo instance(kBudgetBytes);
    return instance;
}

template <typename T, typename Build>
std::shared_ptr<const T>
DistributionMemo::fetch(const std::string &key, const Build &build)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (Value *hit = lru_.get(key)) {
            ++hits_;
            return std::get<std::shared_ptr<const T>>(*hit);
        }
    }
    // Build outside the lock: concurrent first requests may both
    // build, but the result is deterministic so either insert wins.
    auto built = std::make_shared<const T>(build());
    const std::size_t weight = key.size() + bytesOf(*built);
    std::lock_guard<std::mutex> lock(mutex_);
    ++misses_;
    lru_.put(key, built, weight);
    return built;
}

std::shared_ptr<const CleanDistribution>
DistributionMemo::clean(const circuits::RoutedCircuit &routed)
{
    return fetch<CleanDistribution>(
        circuitKey('c', routed),
        [&routed] {
            return CleanDistribution(sim::runCircuit(routed.circuit),
                                     routed);
        });
}

std::shared_ptr<const core::Distribution>
DistributionMemo::exact(const circuits::RoutedCircuit &routed,
                        int measured_qubits, const NoiseModel &model,
                        const std::function<core::Distribution()> &evolve)
{
    std::string fields;
    appendBytes(fields, measured_qubits);
    appendBytes(fields, model.p1q);
    appendBytes(fields, model.p2q);
    appendBytes(fields, model.readout01);
    appendBytes(fields, model.readout10);
    return fetch<core::Distribution>(circuitKey('e', routed, fields),
                                     evolve);
}

CacheStats
DistributionMemo::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return CacheStats{lru_.size(), hits_, misses_};
}

std::size_t
DistributionMemo::bytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lru_.weight();
}

void
DistributionMemo::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    lru_.clear();
    hits_ = 0;
    misses_ = 0;
}

} // namespace hammer::noise
