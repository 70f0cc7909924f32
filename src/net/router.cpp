#include "net/router.hpp"

#include <stdexcept>
#include <utility>

#include "api/json.hpp"
#include "api/service.hpp"
#include "common/checksum.hpp"

namespace hammer::net {

namespace {

/**
 * splitmix64 finalizer over the FNV digest: FNV's low bits are weak
 * for small-modulus bucketing, and shard balance is what the bench
 * speedup gates stand on.
 */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

void
sleepMillis(int millis)
{
    if (millis > 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(millis));
}

std::size_t
checkedAffinityCapacity(std::size_t capacity)
{
    if (capacity < 1)
        throw std::invalid_argument(
            "ShardRouter: affinityCapacity must be >= 1");
    return capacity;
}

} // namespace

ShardRouter::ShardRouter(ShardRouterOptions options)
    : options_(std::move(options)),
      affinity_(checkedAffinityCapacity(options_.affinityCapacity))
{
    if (options_.addresses.empty())
        throw std::invalid_argument(
            "ShardRouter: at least one shard address required");
    shards_.reserve(options_.addresses.size());
    for (const std::string &address : options_.addresses) {
        auto shard = std::make_unique<Shard>();
        shard->address = address;
        shards_.push_back(std::move(shard));
    }
    pendingJobs_.assign(shards_.size(), 0);
    if (options_.breakerFailureThreshold > 0) {
        breakers_.reserve(shards_.size());
        for (std::size_t i = 0; i < shards_.size(); ++i) {
            resil::CircuitBreakerOptions breaker;
            breaker.failureThreshold =
                options_.breakerFailureThreshold;
            breaker.backoffBaseMs = options_.breakerBackoffBaseMs;
            breaker.maxBackoffDoublings =
                options_.breakerMaxBackoffDoublings;
            breaker.seed = options_.breakerSeed;
            breaker.endpoint = i;
            breakers_.emplace_back(breaker);
        }
    }
    if (options_.retryBudget)
        retryBudget_.emplace(options_.retryBudgetOptions);
    if (options_.heartbeatIntervalMs > 0)
        heartbeat_ = std::thread(&ShardRouter::heartbeatLoop, this);
}

ShardRouter::~ShardRouter()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        for (auto &shard : shards_) {
            if (shard->conn)
                shard->conn->shutdownBoth();
            shard->connected = false;
        }
    }
    heartbeatCv_.notify_all();
    jobsCv_.notify_all();
    if (heartbeat_.joinable())
        heartbeat_.join();
    std::lock_guard<std::mutex> rlock(readersMutex_);
    for (std::thread &reader : readers_)
        if (reader.joinable())
            reader.join();
}

common::FaultAction
ShardRouter::fault(common::FaultSite site, std::uint64_t key) const
{
    if (!options_.faultInjector)
        return common::FaultAction::none();
    return options_.faultInjector->at(site, key);
}

void
ShardRouter::recordBreakerFailure(
    std::size_t index, std::chrono::steady_clock::time_point now)
{
    if (breakers_.empty())
        return;
    resil::CircuitBreaker &breaker = breakers_[index];
    const bool wasOpen =
        breaker.state() == resil::CircuitBreaker::State::Open;
    breaker.onFailure(now);
    if (!wasOpen &&
        breaker.state() == resil::CircuitBreaker::State::Open)
        ++stats_.breakerTrips;
}

std::uint64_t
ShardRouter::submit(const std::string &line)
{
    const auto start = std::chrono::steady_clock::now();

    // Parse at the boundary: malformed lines throw here and never
    // consume a dispatch attempt.  The parsed spec only feeds the
    // affinity hash — the *line* travels verbatim, so the shard's
    // parse sees the same bytes a local --serve would.
    const api::SpecLine parsed = api::parseSpecLine(line);
    const std::optional<std::string> execKey =
        api::canonicalExecKey(parsed.spec);
    const std::uint64_t hash =
        mix64(common::fnv1a64(execKey ? *execKey : line));

    std::uint64_t id = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            throw RouterError("router stopped");
        id = nextJobId_++;
        Job job;
        job.line = line;

        // Home shard: the affinity map wins (repeats of a key must
        // keep hitting the shard whose caches hold it; the lookup
        // also marks the key warm); a never-seen key has no cache
        // to protect, so take whichever of its two hash candidates
        // has fewer pending jobs.
        const std::size_t n = shards_.size();
        if (const std::size_t *home = affinity_.get(hash)) {
            job.base = *home;
        } else {
            const std::size_t c0 = hash % n;
            const std::size_t c1 = (hash + 1) % n;
            job.base = pendingJobs_[c1] < pendingJobs_[c0] ? c1 : c0;
            if (affinity_.size() >= affinity_.capacity())
                ++stats_.affinityEvictions;
            affinity_.put(hash, job.base);
        }
        ++pendingJobs_[job.base];
        if (retryBudget_)
            retryBudget_->deposit();
        jobs_.emplace(id, std::move(job));
        ++stats_.submitted;
        stats_.busySeconds +=
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
    }
    dispatchJob(id);
    return id;
}

ShardRouter::Job *
ShardRouter::pendingJobLocked(std::uint64_t id)
{
    const auto it = jobs_.find(id);
    return it == jobs_.end() || it->second.state != Job::State::Pending
               ? nullptr
               : &it->second;
}

void
ShardRouter::dispatchJob(std::uint64_t id)
{
    const std::size_t n = shards_.size();
    // Consecutive breaker refusals within this dispatch: reaching a
    // full rotation means every shard's breaker is refusing right
    // now — the fleet-wide-outage fast-fail condition.
    std::size_t breakerDenials = 0;
    for (;;) {
        int attempt = 0;
        std::string line;
        std::size_t base = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (stopping_)
                return;
            Job *pending = pendingJobLocked(id);
            if (pending == nullptr || pending->shard >= 0)
                return; // Resolved or re-dispatched concurrently.
            Job &job = *pending;
            if (job.attempt >= options_.maxAttempts) {
                job.state = Job::State::Failed;
                job.errorKind = "router";
                job.errorMessage =
                    "job " + std::to_string(id) + ": " +
                    std::to_string(options_.maxAttempts) +
                    " dispatch attempts exhausted";
                settleJob(job);
                jobsCv_.notify_all();
                return;
            }
            attempt = job.attempt++;
            if (attempt > 0) {
                ++stats_.retries;
                // The budget caps the *global* re-dispatch rate:
                // every job's retries draw from one bucket refilled
                // by admissions, so correlated failures degrade to
                // typed errors instead of a retry storm.
                if (retryBudget_ && !retryBudget_->tryWithdraw()) {
                    job.state = Job::State::Failed;
                    job.errorKind = "retry_budget";
                    job.errorMessage =
                        "job " + std::to_string(id) +
                        ": retry budget exhausted at attempt " +
                        std::to_string(attempt);
                    ++stats_.retryBudgetExhausted;
                    settleJob(job);
                    jobsCv_.notify_all();
                    return;
                }
            }
            line = job.line;
            base = job.base;
        }

        const std::size_t index =
            (base + static_cast<std::uint64_t>(attempt)) % n;

        if (!breakers_.empty()) {
            bool admitted = false;
            bool probe = false;
            int episode = 0;
            const auto now = std::chrono::steady_clock::now();
            {
                std::lock_guard<std::mutex> lock(mutex_);
                resil::CircuitBreaker &breaker = breakers_[index];
                const bool wasClosed =
                    breaker.state() ==
                    resil::CircuitBreaker::State::Closed;
                admitted = breaker.allowRequest(now);
                if (admitted && !wasClosed) {
                    probe = true;
                    episode = breaker.episodes();
                    ++stats_.breakerProbes;
                }
                if (!admitted)
                    ++stats_.breakerSkips;
            }
            if (!admitted) {
                if (++breakerDenials >= n) {
                    std::lock_guard<std::mutex> lock(mutex_);
                    Job *pending = pendingJobLocked(id);
                    if (pending == nullptr || pending->shard >= 0)
                        return;
                    Job &job = *pending;
                    job.state = Job::State::Failed;
                    job.errorKind = "breaker_open";
                    job.errorMessage =
                        "job " + std::to_string(id) +
                        ": every shard's circuit breaker is open";
                    ++stats_.breakerFastFails;
                    settleJob(job);
                    jobsCv_.notify_all();
                    return;
                }
                continue;
            }
            breakerDenials = 0;
            if (probe) {
                // BreakerProbe seam: Kill denies the probe — the
                // breaker re-opens with its next (longer) episode,
                // exactly as if the probe had been sent and failed.
                const common::FaultAction probeAction = fault(
                    common::FaultSite::BreakerProbe,
                    index * 256 +
                        static_cast<std::uint64_t>(episode));
                if (probeAction.kind ==
                    common::FaultAction::Kind::Kill) {
                    std::lock_guard<std::mutex> lock(mutex_);
                    ++stats_.breakerProbesDenied;
                    recordBreakerFailure(index, now);
                    continue;
                }
                if (probeAction.kind ==
                    common::FaultAction::Kind::Stall)
                    sleepMillis(probeAction.millis);
            }
        } else {
            breakerDenials = 0;
        }

        // Chaos seam first, before any liveness check: the key
        // sequence a same-seed replay consults must depend only on
        // (id, attempt), never on which connections happen to be up.
        const common::FaultAction action = fault(
            common::FaultSite::ShardSend,
            id * 8 + static_cast<std::uint64_t>(attempt) * 2);
        if (action.kind == common::FaultAction::Kind::Kill) {
            markDead(index);
            continue;
        }
        if (action.kind == common::FaultAction::Kind::Stall)
            sleepMillis(action.millis);

        Shard &shard = *shards_[index];
        bool sent = false;
        {
            std::lock_guard<std::mutex> wlock(shard.writeMutex);
            const std::shared_ptr<Socket> conn =
                ensureConnected(index);
            if (!conn) {
                // Unreachable: burn the attempt and rotate — but
                // give the breaker its failure credit first.  A
                // refused connect is the canonical outage; without
                // credit here an unreachable shard would never
                // open its breaker, and every later job homed on
                // it would re-pay the full reconnect loop.
                std::lock_guard<std::mutex> lock(mutex_);
                recordBreakerFailure(
                    index, std::chrono::steady_clock::now());
                continue;
            }
            {
                // Mark pending *before* the send: the response can
                // race back on the reader thread mid-writeFrame.
                // The dispatched counter moves with it — were it
                // incremented after the send, the response could
                // resolve the job and let a waiter read stats()
                // before the increment landed.
                std::lock_guard<std::mutex> lock(mutex_);
                Job *job = pendingJobLocked(id);
                if (job == nullptr)
                    return;
                job->shard = static_cast<int>(index);
                ++stats_.dispatched;
            }
            try {
                writeFrame(*conn,
                           Frame{FrameType::Submit,
                                 encodeJobPayload(id, attempt,
                                                  line)});
                sent = true;
            } catch (const WireError &) {
                // Take this job off the shard first so markDead's
                // re-route sweep cannot double-dispatch it, and
                // roll back the optimistic dispatch count.
                std::lock_guard<std::mutex> lock(mutex_);
                if (Job *job = pendingJobLocked(id))
                    job->shard = -1;
                --stats_.dispatched;
            }
        }
        if (!sent) {
            markDead(index);
            continue;
        }
        return;
    }
}

void
ShardRouter::settleJob(const Job &job)
{
    --pendingJobs_[job.base];
}

std::shared_ptr<Socket>
ShardRouter::ensureConnected(std::size_t index)
{
    Shard &shard = *shards_[index];
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (shard.connected)
            return shard.conn;
    }
    for (int attempt = 0; attempt <= options_.reconnectAttempts;
         ++attempt) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (stopping_)
                return nullptr;
        }
        try {
            Socket sock = connectTo(shard.address,
                                    options_.connectTimeoutMs);
            if (options_.recvTimeoutMs > 0)
                sock.setRecvTimeout(options_.recvTimeoutMs);
            auto conn = std::make_shared<Socket>(std::move(sock));
            writeFrame(*conn, Frame{FrameType::Hello, {}});
            std::uint64_t generation = 0;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                shard.conn = conn;
                shard.connected = true;
                generation = ++shard.generation;
                shard.lastAck = std::chrono::steady_clock::now();
                if (generation > 1)
                    ++stats_.reconnects;
            }
            {
                std::lock_guard<std::mutex> rlock(readersMutex_);
                readers_.emplace_back(&ShardRouter::readerLoop,
                                      this, index, generation,
                                      conn);
            }
            return conn;
        } catch (const WireError &) {
            sleepMillis(options_.reconnectDelayMs);
        }
    }
    return nullptr;
}

void
ShardRouter::markDead(std::size_t index)
{
    std::vector<std::uint64_t> pending;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Shard &shard = *shards_[index];
        recordBreakerFailure(index,
                             std::chrono::steady_clock::now());
        if (shard.connected) {
            shard.connected = false;
            if (shard.conn)
                shard.conn->shutdownBoth();
            ++stats_.shardDeaths;
        }
        if (stopping_)
            return;
        for (auto &[id, job] : jobs_) {
            if (job.state == Job::State::Pending &&
                job.shard == static_cast<int>(index)) {
                job.shard = -1;
                ++stats_.reroutes;
                pending.push_back(id);
            }
        }
    }
    for (const std::uint64_t id : pending)
        dispatchJob(id);
}

void
ShardRouter::readerLoop(std::size_t index, std::uint64_t generation,
                        std::shared_ptr<Socket> conn)
{
    try {
        for (;;) {
            std::optional<Frame> frame =
                readFrame(*conn, options_.maxFramePayload);
            if (!frame)
                break;
            switch (frame->type) {
            case FrameType::Result:
            case FrameType::Error:
                handleJobFrame(index, frame->type,
                               frame->payload);
                break;
            case FrameType::HeartbeatAck: {
                std::lock_guard<std::mutex> lock(mutex_);
                Shard &shard = *shards_[index];
                if (shard.generation == generation)
                    shard.lastAck =
                        std::chrono::steady_clock::now();
                break;
            }
            case FrameType::StatsReply: {
                std::lock_guard<std::mutex> lock(mutex_);
                Shard &shard = *shards_[index];
                shard.statsReply = frame->payload;
                ++shard.statsSeq;
                statsCv_.notify_all();
                break;
            }
            default:
                break; // Router-bound types only; ignore the rest.
            }
        }
    } catch (const WireError &) {
        // Fall through to the connection-down handling.
    }

    // Only the *current* generation's death re-routes: a reader
    // draining a connection a reconnect already replaced must not
    // declare the new connection's shard dead.
    bool current = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Shard &shard = *shards_[index];
        current = shard.generation == generation && shard.connected;
    }
    if (current)
        markDead(index);
}

void
ShardRouter::handleJobFrame(std::size_t index, FrameType type,
                            const std::string &payload)
{
    JobPayload parsed = parseJobPayload(payload);

    // ShardRecv seam: a key sequence of (id, attempt) pairs, drawn
    // exactly once per response frame.
    const common::FaultAction action = fault(
        common::FaultSite::ShardRecv,
        parsed.id * 8 +
            static_cast<std::uint64_t>(parsed.attempt) * 2 + 1);
    if (action.kind == common::FaultAction::Kind::Stall)
        sleepMillis(action.millis);

    bool redispatch = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = jobs_.find(parsed.id);
        if (it == jobs_.end())
            return;
        Job &job = it->second;
        // Stale guards: only the response to the job's *latest*
        // dispatched attempt on *this* shard resolves it (attempt_
        // holds the next attempt number, hence the -1).
        if (job.state != Job::State::Pending ||
            job.shard != static_cast<int>(index) ||
            job.attempt - 1 != parsed.attempt)
            return;
        if (action.kind == common::FaultAction::Kind::Kill) {
            // Injected lost response: drop the frame, re-dispatch
            // idempotently at the next attempt.  No breaker credit:
            // the replay pretends the frame never arrived.
            ++stats_.recvDropped;
            job.shard = -1;
            redispatch = true;
        } else if (type == FrameType::Result) {
            job.state = Job::State::Done;
            job.resultJson = std::move(parsed.body);
            job.shard = -1;
            settleJob(job);
            ++stats_.resultsReceived;
            // Any accepted response proves the shard alive — an
            // Error frame included (the *job* failed, the shard
            // answered) — so both arms close the breaker.
            if (!breakers_.empty())
                breakers_[index].onSuccess();
            jobsCv_.notify_all();
        } else {
            job.state = Job::State::Failed;
            job.errorKind =
                parsed.kind.empty() ? "internal" : parsed.kind;
            job.errorMessage = std::move(parsed.body);
            job.shard = -1;
            settleJob(job);
            ++stats_.errorsReceived;
            if (!breakers_.empty())
                breakers_[index].onSuccess();
            jobsCv_.notify_all();
        }
    }
    if (redispatch)
        dispatchJob(parsed.id);
}

std::string
ShardRouter::wait(std::uint64_t id)
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = jobs_.end();
    jobsCv_.wait(lock, [&] {
        // Re-find on every wake: a concurrent wait() on the same id
        // may have collected the entry meanwhile.
        it = jobs_.find(id);
        return stopping_ || it == jobs_.end() ||
               it->second.state != Job::State::Pending;
    });
    if (it == jobs_.end())
        throw RouterError("job " + std::to_string(id) +
                          " is unknown or already collected");
    if (it->second.state == Job::State::Pending)
        throw RouterError("router stopped while job " +
                          std::to_string(id) + " was pending");
    // A settled job is collected by the one wait() that reads it:
    // keeping it would pin every result line for the router's life.
    Job job = std::move(it->second);
    jobs_.erase(it);
    if (job.state == Job::State::Done)
        return std::move(job.resultJson);
    if (job.errorKind == "retry_budget")
        throw resil::RetryBudgetExhaustedError(
            "net::ShardRouter (job " + std::to_string(id) + ")",
            job.attempt);
    if (job.errorKind == "breaker_open")
        throw BreakerOpenError(job.errorMessage);
    if (job.errorKind == "router")
        throw RouterError(job.errorMessage);
    throw RemoteJobError(job.errorKind, job.errorMessage);
}

std::vector<std::string>
ShardRouter::runMany(const std::vector<std::string> &lines)
{
    std::vector<std::uint64_t> ids;
    ids.reserve(lines.size());
    for (const std::string &line : lines)
        ids.push_back(submit(line));
    std::vector<std::string> results;
    results.reserve(ids.size());
    for (const std::uint64_t id : ids)
        results.push_back(wait(id));
    return results;
}

std::string
ShardRouter::fetchStats(std::size_t index)
{
    if (index >= shards_.size())
        throw std::invalid_argument("ShardRouter: no shard " +
                                    std::to_string(index));
    Shard &shard = *shards_[index];
    std::uint64_t seqBefore = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        seqBefore = shard.statsSeq;
    }
    {
        std::lock_guard<std::mutex> wlock(shard.writeMutex);
        const std::shared_ptr<Socket> conn = ensureConnected(index);
        if (!conn)
            throw RouterError("shard " + std::to_string(index) +
                              " unreachable for stats");
        writeFrame(*conn, Frame{FrameType::StatsRequest, {}});
    }
    std::unique_lock<std::mutex> lock(mutex_);
    const bool arrived = statsCv_.wait_for(
        lock, std::chrono::seconds(10),
        [&] { return shard.statsSeq != seqBefore; });
    if (!arrived)
        throw RouterError("shard " + std::to_string(index) +
                          " stats reply timed out");
    return shard.statsReply;
}

void
ShardRouter::shutdownShards()
{
    for (std::size_t index = 0; index < shards_.size(); ++index) {
        Shard &shard = *shards_[index];
        std::shared_ptr<Socket> conn;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!shard.connected)
                continue;
            conn = shard.conn;
        }
        try {
            std::lock_guard<std::mutex> wlock(shard.writeMutex);
            writeFrame(*conn, Frame{FrameType::Shutdown, {}});
        } catch (const WireError &) {
            // Already down is already shut down.
        }
    }
}

RouterStats
ShardRouter::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
ShardRouter::heartbeatLoop()
{
    const auto interval =
        std::chrono::milliseconds(options_.heartbeatIntervalMs);
    std::uint64_t seq = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            heartbeatCv_.wait_for(lock, interval,
                                  [&] { return stopping_; });
            if (stopping_)
                return;
        }
        ++seq;
        api::JsonWriter probe;
        probe.beginObject();
        probe.key("seq").value(seq);
        probe.endObject();
        for (std::size_t index = 0; index < shards_.size();
             ++index) {
            Shard &shard = *shards_[index];
            std::shared_ptr<Socket> conn;
            bool silent = false;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                if (!shard.connected)
                    continue;
                conn = shard.conn;
                silent = std::chrono::steady_clock::now() -
                             shard.lastAck >
                         interval + std::chrono::milliseconds(
                                        options_.heartbeatTimeoutMs);
            }
            if (silent) {
                markDead(index);
                continue;
            }
            try {
                std::lock_guard<std::mutex> wlock(shard.writeMutex);
                writeFrame(*conn, Frame{FrameType::Heartbeat,
                                        probe.str()});
                std::lock_guard<std::mutex> lock(mutex_);
                ++stats_.heartbeatsSent;
            } catch (const WireError &) {
                markDead(index);
            }
        }
    }
}

} // namespace hammer::net
