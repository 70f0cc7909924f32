#include "clients.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "api/autoplan.hpp"
#include "api/json.hpp"
#include "api/service.hpp"
#include "check.hpp"
#include "heap.hpp"
#include "host.hpp"
#include "net/router.hpp"
#include "net/shard_worker.hpp"
#include "stats.hpp"

namespace perfbench {

namespace net = hammer::net;

namespace {

using Clock = std::chrono::steady_clock;

/** Seconds since construction. */
class PhaseClock
{
  public:
    double now() const
    {
        return std::chrono::duration<double>(Clock::now() - epoch_).count();
    }

  private:
    Clock::time_point epoch_ = Clock::now();
};

constexpr int kDeepCheckThreads = 2;
// The client holds each deep-sampled Result line until the timed phase
// ends.  Every run reaches this cap early (WorkloadConfig's k is small
// enough), so those bytes are the same on every run however many
// requests it completes.
constexpr std::size_t kMaxDeepSamples = 8;
constexpr std::size_t kMaxReasons = 5;
constexpr int kFleetShards = 2;

// ShardRouter keeps every result line it has served (~430 KB each on
// fleet-repeat), so the client's heap grows with requests completed.
// The timed phase stops submitting after this many requests (one per
// group) per requested second, or at the deadline if that comes
// first, so peak_heap_mb is the same on every run of a given length,
// however fast the fleet serves.
constexpr double kFleetRequestsPerSecond = 50.0;

double
pstGain(const api::Result &r)
{
    if (std::isfinite(r.pstRaw) && std::isfinite(r.pstMitigated) &&
        r.pstRaw > 0.0)
        return r.pstMitigated / r.pstRaw;
    return 0.0;
}

bool
hasStage(const api::Result &r, const char *stage)
{
    return std::any_of(r.timings.begin(), r.timings.end(),
                       [&](const api::StageTiming &t) {
                           return t.stage == stage;
                       });
}

/** Every stage row of @p r, as executed by the request that got it. */
ExecutedStages
stagesOf(const api::Result &r)
{
    ExecutedStages s;
    s.ranPipeline = true;
    s.workload = r.stageSeconds("workload");
    s.backend = r.stageSeconds("backend");
    s.sample = r.stageSeconds("sample");
    s.ranSample = true;
    s.mitigate = r.stageSeconds("mitigate");
    s.readout = r.stageSeconds("mitigate:readout");
    s.ranReadout = hasStage(r, "mitigate:readout");
    s.hammer = r.stageSeconds("mitigate:hammer");
    s.ranHammer = hasStage(r, "mitigate:hammer");
    s.score = r.stageSeconds("score");
    if (s.ranHammer) {
        s.pairOps = r.hammerStats.pairOperations;
        s.uniqueOutcomes = r.hammerStats.uniqueOutcomes;
    }
    return s;
}

/**
 * Tells stage rows a request executed from a peer's replayed ones.
 * A result-cache hit or coalesced attach carries its peer's whole
 * timing vector, and an exec-shared job carries its peer's "sample"
 * row (service.cpp's replay path): both are recognised by the exact
 * seconds value already seen under the same canonical key.
 */
class ReplayFilter
{
  public:
    ExecutedStages classify(const api::ExperimentSpec &spec,
                            const api::Result &r, bool servedFromCache)
    {
        if (servedFromCache)
            return {};
        if (const auto key = api::canonicalSpecKey(spec)) {
            if (!seenTotals_[*key].insert(r.totalSeconds()).second)
                return {};
        }
        ExecutedStages s = stagesOf(r);
        if (const auto key = api::canonicalExecKey(spec)) {
            if (!seenSamples_[*key].insert(s.sample).second) {
                s.sample = 0.0;
                s.ranSample = false;
            }
        }
        return s;
    }

  private:
    std::map<std::string, std::set<double>> seenTotals_;
    std::map<std::string, std::set<double>> seenSamples_;
};

void
noteFailure(PhaseResult &out, const std::string &reason)
{
    if (out.failures.size() < kMaxReasons)
        out.failures.push_back(reason);
}

void
requireClean(const std::deque<RequestRecord> &records, const char *what)
{
    for (const RequestRecord &r : records) {
        if (!r.ok)
            throw std::runtime_error(std::string(what) + " request " +
                                     std::to_string(r.index) +
                                     " failed: " + r.error);
    }
}

/** Append a span ending now; returns the end time. */
double
mark(RequestRecord &rec, const char *name, double start,
     const PhaseClock &clock)
{
    const double end = clock.now();
    rec.spans.push_back({name, start, end});
    return end;
}

void
finishTiming(PhaseResult &out)
{
    if (out.records.empty())
        return;
    double first = out.records.front().start;
    double last = out.records.front().end;
    for (const RequestRecord &r : out.records) {
        first = std::min(first, r.start);
        last = std::max(last, r.end);
    }
    out.wall = last - first;
    for (const RequestRecord &r : out.records) {
        if (!r.ok)
            noteFailure(out, "request " + std::to_string(r.index) + ": " +
                                 r.error);
    }
}

// ---------------------------------------------------------------------------
// In-process service
// ---------------------------------------------------------------------------

struct DeepSample
{
    Request request;
    api::ExperimentSpec spec;
    std::string json;
    std::size_t record = 0;
};

/** Closed-loop client over one ExecutionService. */
class ServiceClient
{
  public:
    ServiceClient(api::ExecutionService &service,
                  const WorkloadConfig &config, const PhaseClock &clock,
                  bool traced, std::uint64_t seed, bool sampleDeep)
        : service_(service), config_(config), clock_(clock),
          traced_(traced), seed_(seed), sampleDeep_(sampleDeep)
    {
    }

    /**
     * Submit whole groups while they fit in the window, until
     * @p maxGroups groups (0 = no limit) or until @p deadline seconds
     * (<= 0 = none); then drain.  Completions are found by polling,
     * so each request is timed when it finishes, not in submit order.
     */
    void run(RequestStream &stream, std::size_t maxGroups, double deadline)
    {
        std::size_t groups = 0;
        bool open = true;
        while (true) {
            while (open && pending_.size() +
                                   static_cast<std::size_t>(
                                       config_.groupSize) <=
                               static_cast<std::size_t>(config_.window)) {
                if ((maxGroups != 0 && groups == maxGroups) ||
                    (deadline > 0.0 && clock_.now() >= deadline)) {
                    open = false;
                    break;
                }
                for (Request &r : stream.nextGroup())
                    submit(std::move(r));
                ++groups;
            }
            if (pending_.empty())
                break;
            bool progressed = false;
            for (std::size_t i = 0; i < pending_.size(); ++i) {
                if (!pending_[i].submitted ||
                    service_.poll(pending_[i].handle)) {
                    complete(pending_[i]);
                    pending_.erase(pending_.begin() +
                                   static_cast<std::ptrdiff_t>(i));
                    progressed = true;
                    break;
                }
            }
            if (!progressed)
                std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
    }

    // A deque grows by fixed blocks: a vector's doubling would add a
    // step to peak_heap_mb wherever a run's request count crossed a
    // power of two.
    std::deque<RequestRecord> records;
    std::vector<DeepSample> deep;
    std::set<std::string> execKeys;
    std::size_t opaqueExecs = 0; ///< Requests with no exec key.

  private:
    struct Pending
    {
        Request request;
        api::ExperimentSpec spec;
        api::ExecutionService::JobHandle handle;
        bool submitted = false;
        double submitEnd = 0.0;
        RequestRecord record;
    };

    void submit(Request request)
    {
        Pending p;
        p.request = std::move(request);
        RequestRecord &rec = p.record;
        rec.index = p.request.index;
        rec.group = p.request.group;
        rec.start = clock_.now();
        try {
            double t = rec.start;
            if (p.request.qaoa) {
                p.spec = buildQaoaRequest(p.request);
                if (traced_)
                    t = mark(rec, "circuits.build", t, clock_);
            } else {
                p.spec = parseRequest(p.request);
                if (traced_)
                    t = mark(rec, "api.parse", t, clock_);
            }
            api::estimateSpecCost(p.spec);
            if (traced_)
                t = mark(rec, "plan.estimate", t, clock_);
            p.handle = service_.submit(p.spec);
            if (traced_)
                p.submitEnd = mark(rec, "api.submit", t, clock_);
            p.submitted = true;
        } catch (const std::exception &e) {
            rec.error = e.what();
        }
        pending_.push_back(std::move(p));
    }

    void complete(Pending &p)
    {
        RequestRecord &rec = p.record;
        if (p.submitted) {
            try {
                const double ready = traced_ ? clock_.now() : 0.0;
                const api::Result result = service_.wait(p.handle);
                double t = ready;
                if (traced_)
                    t = mark(rec, "api.wait", t, clock_);
                const std::string json = result.json();
                rec.end = clock_.now();
                if (traced_) {
                    rec.spans.push_back({"api.serialize", t, rec.end});
                    rec.serializeSeconds = rec.end - t;
                    rec.stages = filter_.classify(
                        p.spec, result, p.handle.servedFromCache());
                    rec.remainder = std::max(
                        0.0, ready - p.submitEnd - rec.stages.total());
                }
                rec.bytes = json.size();
                rec.error = checkResult(p.request, p.spec, result);
                rec.ok = rec.error.empty();
                rec.pstGain = pstGain(result);
                if (const auto key = api::canonicalExecKey(p.spec))
                    execKeys.insert(*key);
                else
                    ++opaqueExecs;
                if (sampleDeep_ && deep.size() < kMaxDeepSamples &&
                    inDeepSample(seed_, rec.index, config_.deepCheckEvery))
                    deep.push_back({p.request, p.spec, json, records.size()});
            } catch (const std::exception &e) {
                rec.error = e.what();
            }
        }
        if (rec.end == 0.0)
            rec.end = clock_.now();
        records.push_back(std::move(rec));
    }

    api::ExecutionService &service_;
    const WorkloadConfig &config_;
    const PhaseClock &clock_;
    const bool traced_;
    const std::uint64_t seed_;
    const bool sampleDeep_;
    std::vector<Pending> pending_;
    ReplayFilter filter_;
};

PhaseResult
runServicePhase(const PhaseOptions &o)
{
    const WorkloadConfig &cfg = *o.config;
    PhaseResult out;
    // ThreadPool counts the thread that waits as one of its workers
    // (it runs workers - 1 dedicated threads and wait() drains the
    // queue).  This client only polls, so one more worker gives the
    // workload its kWorkers executing threads.
    //
    // No workload needs more than a few cache entries (sweep-hammer
    // and qaoa-loop never hit, readout-both shares within a triple).
    // A small LRU is full within seconds, so peak_heap_mb does not grow
    // with the number of requests a run completes.
    api::ExecutionServiceOptions options;
    options.workers = kWorkers + 1;
    options.cacheCapacity = 32;

    std::unique_ptr<api::ExecutionService> service;
    for (int rep = 0; rep < kSetups; ++rep) {
        service.reset();
        const PhaseClock setupClock;
        service = std::make_unique<api::ExecutionService>(options);
        RequestStream warm(cfg.kind, o.seed, true);
        ServiceClient client(*service, cfg, setupClock, false, o.seed,
                             false);
        client.run(warm, static_cast<std::size_t>(cfg.warmupGroups), 0.0);
        requireClean(client.records, "warm-up");
        out.setupSeconds.push_back(setupClock.now());
    }

    const api::ServiceStats before = service->stats();
    const double cpu0 = selfCpuSeconds();
    const std::uint64_t steal0 = stealTicks();
    const PhaseClock clock;
    ServiceClient client(*service, cfg, clock, o.traced, o.seed,
                         o.deepChecks);
    RequestStream stream(cfg.kind, o.seed, false);
    client.run(stream, 0, o.seconds);
    out.cpuSeconds = selfCpuSeconds() - cpu0;
    out.stealTicks = stealTicks() - steal0;
    out.peakRssMb = peakRssMb(::getpid());
    out.peakHeapMb = static_cast<double>(heapPeakBytes()) / 1e6;
    const api::ServiceStats after = service->stats();
    service.reset();

    ServiceDeltas &d = out.deltas;
    d.resultHits = static_cast<double>(after.resultCache.hits -
                                       before.resultCache.hits);
    d.resultMisses = static_cast<double>(after.resultCache.misses -
                                         before.resultCache.misses);
    d.executeRuns = static_cast<double>(after.executeRuns - before.executeRuns);
    d.executeShared =
        static_cast<double>(after.executeShared - before.executeShared);
    d.predictedCost = after.predictedCostSeconds - before.predictedCostSeconds;
    d.measuredCost = after.measuredCostSeconds - before.measuredCostSeconds;
    d.distinctExecKeys =
        static_cast<double>(client.execKeys.size() + client.opaqueExecs);

    out.records.assign(std::make_move_iterator(client.records.begin()),
                       std::make_move_iterator(client.records.end()));
    for (const DeepSample &s : client.deep) {
        ++out.deepChecks;
        const std::string why =
            deepCheck(s.spec, s.json, s.request.chain, kDeepCheckThreads);
        if (!why.empty()) {
            ++out.deepFailures;
            out.records[s.record].ok = false;
            out.records[s.record].error = "deep check: " + why;
        }
    }
    finishTiming(out);
    return out;
}

// ---------------------------------------------------------------------------
// Shard fleet
// ---------------------------------------------------------------------------

/**
 * Shard worker processes forked for one fleet.  Fork happens while
 * this process runs no other thread (every earlier router has been
 * destroyed and its readers joined).  Each shard keeps its heap peak
 * in a page shared with this process.  The destructor reaps every
 * child, killing any that outlive a bounded grace period.
 */
class Fleet
{
  public:
    Fleet(int workers, const std::string &dir, int generation)
    {
        void *page = ::mmap(nullptr, kPeakBytes, PROT_READ | PROT_WRITE,
                            MAP_SHARED | MAP_ANONYMOUS, -1, 0);
        if (page == MAP_FAILED)
            throw std::runtime_error("mmap of the shard peak page failed");
        peaks_ = new (page) std::atomic<std::int64_t>[kFleetShards]();
        std::fflush(stdout);
        std::fflush(stderr);
        for (int i = 0; i < kFleetShards; ++i) {
            const std::string path =
                dir + "/shard-" + std::to_string(::getpid()) + "-" +
                std::to_string(generation) + "-" + std::to_string(i) +
                ".sock";
            ::unlink(path.c_str());
            const pid_t parent = ::getpid();
            const pid_t pid = ::fork();
            if (pid < 0)
                throw std::runtime_error("fork failed");
            if (pid == 0) {
                // A shard never outlives the benchmark, even when the
                // benchmark is killed.
                ::prctl(PR_SET_PDEATHSIG, SIGKILL);
                if (::getppid() != parent)
                    std::_Exit(1);
                trackPeakIn(&peaks_[i]);
                int code = 0;
                try {
                    net::ShardWorkerOptions options;
                    options.service.workers = workers;
                    net::ShardWorker worker("unix:" + path, options);
                    worker.run();
                } catch (...) {
                    code = 3;
                }
                std::_Exit(code);
            }
            pids_.push_back(pid);
            paths_.push_back(path);
            addresses_.push_back("unix:" + path);
        }
    }

    ~Fleet()
    {
        reap();
        ::munmap(peaks_, kPeakBytes);
    }

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    const std::vector<std::string> &addresses() const { return addresses_; }
    const std::vector<pid_t> &pids() const { return pids_; }

    /** Heap peak bytes of every shard since it was forked, summed. */
    std::int64_t shardHeapPeakBytes() const
    {
        std::int64_t sum = 0;
        for (int i = 0; i < kFleetShards; ++i)
            sum += peaks_[i].load(std::memory_order_relaxed);
        return sum;
    }

    /**
     * Block until every shard's socket exists, so the router's first
     * connect finds a listener instead of sleeping in its reconnect
     * loop.  @throws std::runtime_error after 10 s.
     */
    void awaitListening() const
    {
        const auto deadline = Clock::now() + std::chrono::seconds(10);
        for (const std::string &path : paths_) {
            while (::access(path.c_str(), F_OK) != 0) {
                if (Clock::now() >= deadline)
                    throw std::runtime_error("shard did not listen on " +
                                             path);
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
        }
    }

    /** Wait for every shard to exit (SIGKILL after 5 s); idempotent. */
    void reap()
    {
        const auto deadline = Clock::now() + std::chrono::seconds(5);
        for (const pid_t pid : pids_) {
            int status = 0;
            while (::waitpid(pid, &status, WNOHANG) == 0) {
                if (Clock::now() >= deadline) {
                    ::kill(pid, SIGKILL);
                    ::waitpid(pid, &status, 0);
                    break;
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
        }
        pids_.clear();
        for (const std::string &path : paths_)
            ::unlink(path.c_str());
        paths_.clear();
    }

  private:
    static constexpr std::size_t kPeakBytes = 4096;
    std::atomic<std::int64_t> *peaks_ = nullptr;
    std::vector<pid_t> pids_;
    std::vector<std::string> paths_;
    std::vector<std::string> addresses_;
};

/** Summed shard counters from StatsRequest round trips. */
ServiceDeltas
shardCounters(net::ShardRouter &router)
{
    ServiceDeltas sum;
    for (std::size_t i = 0; i < router.shardCount(); ++i) {
        const api::JsonValue stats = api::parseJson(router.fetchStats(i));
        sum.resultHits += stats.at("result_cache").at("hits").asNumber();
        sum.resultMisses += stats.at("result_cache").at("misses").asNumber();
        sum.executeRuns += stats.at("execute_runs").asNumber();
        sum.executeShared += stats.at("execute_shared").asNumber();
        sum.predictedCost += stats.at("predicted_cost_seconds").asNumber();
        sum.measuredCost += stats.at("measured_cost_seconds").asNumber();
        sum.shardSubmitted.push_back(stats.at("submitted").asNumber());
    }
    return sum;
}

/**
 * Closed-loop client over a ShardRouter.  ShardRouter::wait blocks on
 * one job, so the client consumes results in submit order (as
 * ShardRouter::runMany merges them).  Every result line must equal,
 * byte for byte, the first line served for its spec; those first
 * lines get the full check in finish().
 */
class FleetClient
{
  public:
    FleetClient(net::ShardRouter &router, const WorkloadConfig &config,
                const PhaseClock &clock, bool traced)
        : router_(router), config_(config), clock_(clock), traced_(traced)
    {
    }

    void run(RequestStream &stream, std::size_t maxGroups, double deadline)
    {
        std::deque<Pending> queue;
        std::size_t groups = 0;
        bool open = true;
        while (true) {
            while (open && queue.size() < static_cast<std::size_t>(
                                              config_.window)) {
                if ((maxGroups != 0 && groups == maxGroups) ||
                    (deadline > 0.0 && clock_.now() >= deadline)) {
                    open = false;
                    break;
                }
                for (Request &r : stream.nextGroup())
                    queue.push_back(submit(std::move(r)));
                ++groups;
            }
            if (queue.empty())
                break;
            complete(queue.front());
            queue.pop_front();
        }
    }

    /**
     * Check each distinct line and spread its verdict, PST gain and
     * (traced) executed stages over the requests that got it.
     */
    void finish()
    {
        std::map<std::size_t, std::string> verdict;
        std::map<std::size_t, double> gain;
        std::map<std::size_t, double> serialize;
        for (auto &[group, d] : distinct) {
            try {
                const api::ExperimentSpec spec =
                    parseRequest(d.request);
                const api::Result r = api::resultFromJson(d.line);
                verdict[group] = checkResult(d.request, spec, r);
                gain[group] = pstGain(r);
                if (traced_) {
                    RequestRecord &first = records[d.firstRecord];
                    first.stages = stagesOf(r);
                    first.remainder -= first.stages.total();
                    // The shard serialized this Result for every request
                    // that got it; time the same call on the same data.
                    std::vector<double> costs(3);
                    for (double &cost : costs) {
                        const auto t0 = Clock::now();
                        r.json();
                        cost = std::chrono::duration<double>(Clock::now() -
                                                             t0)
                                   .count();
                    }
                    serialize[group] = median(costs);
                }
            } catch (const std::exception &e) {
                verdict[group] = e.what();
            }
        }
        for (RequestRecord &rec : records) {
            if (!rec.ok)
                continue;
            const std::string &why = verdict[rec.group];
            if (!why.empty()) {
                rec.ok = false;
                rec.error = why;
            }
            rec.pstGain = gain[rec.group];
            rec.serializeSeconds = serialize[rec.group];
        }
    }

    struct Distinct
    {
        Request request;
        std::string line;
        std::size_t firstRecord = 0;
    };

    std::deque<RequestRecord> records;
    std::map<std::size_t, Distinct> distinct;

  private:
    struct Pending
    {
        Request request;
        std::uint64_t id = 0;
        bool submitted = false;
        double submitEnd = 0.0;
        RequestRecord record;
    };

    Pending submit(Request request)
    {
        Pending p;
        p.request = std::move(request);
        RequestRecord &rec = p.record;
        rec.index = p.request.index;
        rec.group = p.request.group;
        rec.start = clock_.now();
        try {
            p.id = router_.submit(p.request.line);
            p.submitEnd = clock_.now();
            if (traced_)
                rec.spans.push_back({"api.submit", rec.start, p.submitEnd});
            p.submitted = true;
        } catch (const std::exception &e) {
            rec.error = e.what();
        }
        return p;
    }

    void complete(Pending &p)
    {
        RequestRecord &rec = p.record;
        if (p.submitted) {
            try {
                std::string line = router_.wait(p.id);
                rec.end = clock_.now();
                if (traced_) {
                    rec.spans.push_back({"net.wait", p.submitEnd, rec.end});
                    rec.remainder = rec.end - p.submitEnd;
                }
                rec.bytes = line.size();
                auto found = distinct.find(rec.group);
                if (found == distinct.end()) {
                    distinct[rec.group] = {p.request, std::move(line),
                                           records.size()};
                    rec.ok = true;
                } else {
                    rec.ok = line == found->second.line;
                    if (!rec.ok)
                        rec.error = "result line differs from the first "
                                    "line served for its spec";
                }
            } catch (const std::exception &e) {
                rec.error = e.what();
            }
        }
        if (rec.end == 0.0)
            rec.end = clock_.now();
        records.push_back(std::move(rec));
    }

    net::ShardRouter &router_;
    const WorkloadConfig &config_;
    const PhaseClock &clock_;
    const bool traced_;
};

PhaseResult
runFleetPhase(const PhaseOptions &o)
{
    const WorkloadConfig &cfg = *o.config;
    PhaseResult out;
    out.fleet = true;
    std::unique_ptr<Fleet> fleet;
    std::unique_ptr<net::ShardRouter> router;
    const auto teardown = [&] {
        if (router) {
            router->shutdownShards();
            router.reset();
        }
        fleet.reset();
    };

    try {
        for (int rep = 0; rep < kSetups; ++rep) {
            teardown();
            const PhaseClock setupClock;
            fleet = std::make_unique<Fleet>(kWorkers, o.outDir, rep);
            fleet->awaitListening();
            net::ShardRouterOptions options;
            options.addresses = fleet->addresses();
            router = std::make_unique<net::ShardRouter>(options);
            RequestStream warm(cfg.kind, o.seed, true);
            FleetClient client(*router, cfg, setupClock, false);
            client.run(warm, static_cast<std::size_t>(cfg.warmupGroups),
                       0.0);
            client.finish();
            requireClean(client.records, "warm-up");
            out.setupSeconds.push_back(setupClock.now());
        }

        const ServiceDeltas before = shardCounters(*router);
        const net::RouterStats routerBefore = router->stats();
        const auto fleetCpu = [&] {
            double cpu = selfCpuSeconds();
            for (const pid_t pid : fleet->pids())
                cpu += pidCpuSeconds(pid);
            return cpu;
        };
        const double cpu0 = fleetCpu();
        const std::uint64_t steal0 = stealTicks();
        const PhaseClock clock;
        FleetClient client(*router, cfg, clock, o.traced);
        RequestStream stream(cfg.kind, o.seed, false);
        client.run(stream,
                   static_cast<std::size_t>(kFleetRequestsPerSecond *
                                            o.seconds),
                   o.seconds);
        out.cpuSeconds = fleetCpu() - cpu0;
        out.stealTicks = stealTicks() - steal0;
        const net::RouterStats routerAfter = router->stats();
        const ServiceDeltas after = shardCounters(*router);
        out.peakRssMb = peakRssMb(::getpid());
        for (const pid_t pid : fleet->pids())
            out.peakRssMb += peakRssMb(pid);
        out.peakHeapMb = static_cast<double>(heapPeakBytes() +
                                             fleet->shardHeapPeakBytes()) /
                         1e6;
        teardown();

        ServiceDeltas &d = out.deltas;
        d.resultHits = after.resultHits - before.resultHits;
        d.resultMisses = after.resultMisses - before.resultMisses;
        d.executeRuns = after.executeRuns - before.executeRuns;
        d.executeShared = after.executeShared - before.executeShared;
        d.predictedCost = after.predictedCost - before.predictedCost;
        d.measuredCost = after.measuredCost - before.measuredCost;
        d.distinctExecKeys = static_cast<double>(client.distinct.size());
        for (std::size_t i = 0; i < after.shardSubmitted.size(); ++i)
            d.shardSubmitted.push_back(after.shardSubmitted[i] -
                                       before.shardSubmitted[i]);
        d.routerSubmitted = static_cast<double>(routerAfter.submitted -
                                                routerBefore.submitted);
        d.routerDispatched = static_cast<double>(routerAfter.dispatched -
                                                 routerBefore.dispatched);
        d.routerBusySeconds = routerAfter.busySeconds - routerBefore.busySeconds;

        client.finish();
        out.records.assign(std::make_move_iterator(client.records.begin()),
                           std::make_move_iterator(client.records.end()));
        if (o.deepChecks) {
            // Every request equals the first line of its spec, so
            // checking the distinct lines covers all of them.
            for (const auto &[group, dl] : client.distinct) {
                ++out.deepChecks;
                const std::string why = deepCheck(
                    parseRequest(dl.request), dl.line,
                    dl.request.chain, kDeepCheckThreads);
                if (why.empty())
                    continue;
                ++out.deepFailures;
                for (RequestRecord &rec : out.records) {
                    if (rec.group == group) {
                        rec.ok = false;
                        rec.error = "deep check: " + why;
                    }
                }
            }
        }
    } catch (...) {
        teardown();
        throw;
    }
    finishTiming(out);
    return out;
}

} // namespace

std::size_t
PhaseResult::failed() const
{
    return static_cast<std::size_t>(
        std::count_if(records.begin(), records.end(),
                      [](const RequestRecord &r) { return !r.ok; }));
}

double
PhaseResult::jobsPerSecond() const
{
    return wall > 0.0 ? static_cast<double>(records.size() - failed()) / wall
                      : 0.0;
}

PhaseResult
runPhase(const PhaseOptions &options)
{
    PhaseResult out = options.config->kind == WorkloadKind::FleetRepeat
                          ? runFleetPhase(options)
                          : runServicePhase(options);
    out.seconds = options.seconds;
    return out;
}

} // namespace perfbench
