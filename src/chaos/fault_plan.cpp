#include "chaos/fault_plan.hpp"

#include "common/checksum.hpp"
#include "common/rng.hpp"

namespace hammer::chaos {

using common::FaultAction;
using common::FaultSite;

FaultPlan::FaultPlan(std::uint64_t seed, FaultPlanOptions options)
    : seed_(seed), options_(options)
{
}

common::FaultAction
FaultPlan::peek(FaultSite site, std::uint64_t key) const
{
    // One child stream per (site, key): the decision is a pure
    // function of the seed and the call site, so replays are exact
    // even when visit order races across workers.
    common::Fnv1a mix;
    mix.add(static_cast<std::uint64_t>(site));
    mix.add(key);
    common::Rng rng = common::Rng(seed_).fork(mix.digest());

    // Fixed draw order per site keeps the mapping stable when rates
    // change: the kill draw happens whether or not stalls are on.
    switch (site) {
    case FaultSite::ServiceJob: {
        const bool kill = rng.bernoulli(options_.workerKillRate);
        const bool stall = rng.bernoulli(options_.workerStallRate);
        if (kill)
            return {FaultAction::Kind::Kill, 0};
        if (stall)
            return {FaultAction::Kind::Stall, options_.stallMillis};
        break;
    }
    case FaultSite::CacheInsert:
        if (rng.bernoulli(options_.cachePoisonRate))
            return {FaultAction::Kind::Poison, 0};
        break;
    case FaultSite::CoalesceRegister: {
        const bool drop = rng.bernoulli(options_.coalesceDropRate);
        const bool delay = rng.bernoulli(options_.coalesceDelayRate);
        if (drop)
            return {FaultAction::Kind::Drop, 0};
        if (delay)
            return {FaultAction::Kind::Delay, options_.delayMillis};
        break;
    }
    case FaultSite::ShardSend: {
        const bool kill = rng.bernoulli(options_.shardSendKillRate);
        const bool stall = rng.bernoulli(options_.shardSendStallRate);
        if (kill)
            return {FaultAction::Kind::Kill, 0};
        if (stall)
            return {FaultAction::Kind::Stall, options_.stallMillis};
        break;
    }
    case FaultSite::ShardRecv: {
        const bool kill = rng.bernoulli(options_.shardRecvKillRate);
        const bool stall = rng.bernoulli(options_.shardRecvStallRate);
        if (kill)
            return {FaultAction::Kind::Kill, 0};
        if (stall)
            return {FaultAction::Kind::Stall, options_.stallMillis};
        break;
    }
    case FaultSite::BreakerProbe: {
        const bool deny = rng.bernoulli(options_.breakerProbeDenyRate);
        const bool stall =
            rng.bernoulli(options_.breakerProbeStallRate);
        if (deny)
            return {FaultAction::Kind::Kill, 0};
        if (stall)
            return {FaultAction::Kind::Stall, options_.stallMillis};
        break;
    }
    case FaultSite::ShedDecision:
        if (rng.bernoulli(options_.shedForceRate))
            return {FaultAction::Kind::Kill, 0};
        break;
    }
    return FaultAction::none();
}

common::FaultAction
FaultPlan::at(FaultSite site, std::uint64_t key)
{
    const FaultAction action = peek(site, key);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.decisions;
    switch (action.kind) {
    case FaultAction::Kind::Kill:
        ++stats_.kills;
        break;
    case FaultAction::Kind::Stall:
        ++stats_.stalls;
        break;
    case FaultAction::Kind::Poison:
        ++stats_.poisons;
        break;
    case FaultAction::Kind::Drop:
        ++stats_.drops;
        break;
    case FaultAction::Kind::Delay:
        ++stats_.delays;
        break;
    case FaultAction::Kind::None:
        break;
    }
    return action;
}

FaultPlanStats
FaultPlan::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

// ---------------------------------------------------------------------------
// Hostile serving-protocol traffic
// ---------------------------------------------------------------------------

namespace {

/** Hand-picked worst cases, always at the front of every flood. */
const char *const kFixedHostileLines[] = {
    // Truncated / structurally malformed JSON.
    "{",
    "{\"workload\"",
    "{\"workload\": \"bv:5\"",
    "{\"workload\": \"bv:5\",",
    "{\"workload\": \"bv:5\", \"shots\": }",
    "{\"workload\": \"bv:5\" \"shots\": 100}",
    "{\"workload\": \"bv:5\", \"shots\": 100,}",
    "{}",
    "{\"\": \"\"}",
    // Wrong top-level kinds.
    "[1, 2, 3]",
    "{\"workload\": [\"bv:5\"]}",
    "{\"workload\": {\"name\": \"bv:5\"}}",
    "{\"workload\": 5}",
    "{\"workload\": null}",
    "{\"workload\": true}",
    // Budget abuse: zero, negative, fractional, overflowing, inf/nan
    // spellings (the last two are malformed JSON literals on top).
    "{\"workload\": \"bv:5\", \"shots\": 0}",
    "{\"workload\": \"bv:5\", \"shots\": -3}",
    "{\"workload\": \"bv:5\", \"shots\": 1.5}",
    "{\"workload\": \"bv:5\", \"shots\": 5000000000}",
    "{\"workload\": \"bv:5\", \"shots\": 1e999}",
    "{\"workload\": \"bv:5\", \"shots\": -1e999}",
    "{\"workload\": \"bv:5\", \"shots\": 1e}",
    "{\"workload\": \"bv:5\", \"shots\": 0x10}",
    "{\"workload\": \"bv:5\", \"shots\": Infinity}",
    "{\"workload\": \"bv:5\", \"shots\": NaN}",
    "{\"workload\": \"bv:5\", \"trajectories\": 0}",
    "{\"workload\": \"bv:5\", \"priority\": 2.5}",
    "{\"workload\": \"bv:5\", \"priority\": 1e20}",
    "{\"workload\": \"bv:5\", \"noise_scale\": \"loud\"}",
    // Duplicate and unknown keys.
    "{\"workload\": \"bv:5\", \"shots\": 1, \"shots\": 2}",
    "{\"workload\": \"bv:5\", \"workload\": \"ghz:4\"}",
    "{\"workload\": \"bv:5\", \"warpdrive\": 9}",
    "{\"shots\": 100}",
    // String escapes: bad escapes, lone surrogate halves, truncated
    // \\u, embedded NUL escape (valid JSON — must not truncate).
    "{\"workload\": \"bv:5\", \"label\": \"\\x\"}",
    "{\"workload\": \"bv:5\", \"label\": \"\\uD800\"}",
    "{\"workload\": \"bv:5\", \"label\": \"\\uDC00\"}",
    "{\"workload\": \"bv:5\", \"label\": \"\\uD800\\uD800\"}",
    "{\"workload\": \"bv:5\", \"label\": \"\\uD800x\"}",
    "{\"workload\": \"bv:5\", \"label\": \"\\u12\"}",
    "{\"workload\": \"bv:5\", \"label\": \"\\u0000ok\"}",
    "{\"workload\": \"bv:5\", \"label\": \"unterminated",
    "{\"workload\": \"bv:5\", \"label\": \"trailing\\\"}",
    // CSV abuse.
    "bv:5,channel,notanumber",
    "bv:5,channel,1,1,hammer,machineA,label,extra",
    ",channel,100",
    "bv:5,channel,-5",
    "bv:5,channel,99999999999999999999",
    // Trailing garbage after a valid document.
    "{\"workload\": \"bv:5\"} trailing",
    "{\"workload\": \"bv:5\"}}",
};

/** Valid lines the generator sprinkles in (a flood is not all noise). */
const char *const kValidLines[] = {
    "{\"workload\": \"bv:5\", \"shots\": 256, \"seed\": 2}",
    "{\"workload\": \"ghz:4\", \"mitigation\": \"readout,hammer\"}",
    "bv:5,channel,256,3,hammer",
    "ghz:4",
    "qaoa:6:1,trajectory,200,1,readout+hammer,machineB,flood",
};

} // namespace

std::vector<std::string>
hostileSpecLines(std::uint64_t seed, std::size_t count)
{
    std::vector<std::string> lines;
    lines.reserve(count);
    for (const char *line : kFixedHostileLines) {
        if (lines.size() >= count)
            return lines;
        lines.emplace_back(line);
    }

    // The generated tail: deterministic mutations of valid lines.
    // Every draw happens in fixed loop order from one seeded stream,
    // so (seed, count) fully determines the flood.
    common::Rng rng(seed);
    while (lines.size() < count) {
        const std::size_t valid_count =
            sizeof(kValidLines) / sizeof(kValidLines[0]);
        std::string line = kValidLines[rng.uniformInt(valid_count)];
        switch (rng.uniformInt(8)) {
        case 0: // Keep it valid: the consumer must accept these.
            break;
        case 1: // Truncate mid-line.
            line.resize(1 + rng.uniformInt(line.size() - 1));
            break;
        case 2: { // Flip one byte to a random printable character.
            const std::size_t pos = rng.uniformInt(line.size());
            line[pos] = static_cast<char>(' ' + rng.uniformInt(94));
            break;
        }
        case 3: { // Insert a control byte.
            const std::size_t pos = rng.uniformInt(line.size());
            line.insert(line.begin() +
                            static_cast<std::ptrdiff_t>(pos),
                        static_cast<char>(1 + rng.uniformInt(31)));
            break;
        }
        case 4: // Absurd nesting (the parser's depth bound trips).
        {
            const std::size_t depth = 280 + rng.uniformInt(64);
            line = "{\"workload\": ";
            line.append(depth, '[');
            line += "\"bv:5\"";
            line.append(depth, ']');
            line += '}';
            break;
        }
        case 5: // A huge random number where a budget belongs.
            line = "{\"workload\": \"bv:5\", \"shots\": " +
                   std::to_string(rng.uniform(1e12, 1e18)) + "}";
            break;
        case 6: // Random lone-surrogate label.
            line = "{\"workload\": \"bv:5\", \"label\": \"\\uD8" +
                   std::string(1, "0123456789ABCDEF"[rng.uniformInt(
                                      16)]) +
                   std::string(1, "0123456789ABCDEF"[rng.uniformInt(
                                      16)]) +
                   "\"}";
            break;
        case 7: // Pure binary garbage.
        {
            const std::size_t len = 1 + rng.uniformInt(40);
            line.clear();
            for (std::size_t i = 0; i < len; ++i)
                line += static_cast<char>(1 + rng.uniformInt(255));
            break;
        }
        }
        lines.push_back(std::move(line));
    }
    return lines;
}

} // namespace hammer::chaos
