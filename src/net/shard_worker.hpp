/**
 * @file
 * hammer::net — one shard: a framed-socket front over a local
 * ExecutionService.
 *
 * A ShardWorker listens on one address, accepts one router
 * connection at a time, and drains Submit frames through its own
 * api::ExecutionService — so a shard gets the full serving stack
 * (priority queue, coalescing, result LRU, fault-hardened retries)
 * for free, and its results are bit-identical to any other service
 * executing the same spec line.
 *
 * Per connection the worker runs a reader loop (this thread) plus
 * one writer thread: the reader parses and submits jobs and answers
 * Heartbeat/StatsRequest inline; the writer waits on job futures in
 * submit order and streams Result/Error frames back.  Emission in
 * submit order costs nothing here (the router re-orders by id
 * anyway) and keeps the wire deterministic for tests.
 *
 * run() returns after a Shutdown frame or stop(); the service is
 * shut down (drained) and, when emitStats is set, one
 * api::serviceStatsJson line goes to stderr — the scrape format the
 * bench and the smoke script read.
 */

#ifndef HAMMER_NET_SHARD_WORKER_HPP
#define HAMMER_NET_SHARD_WORKER_HPP

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "api/service.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"

namespace hammer::net {

/** Tuning knobs of one ShardWorker. */
struct ShardWorkerOptions
{
    /**
     * ExecutionService options for the shard-local service.  A
     * workers value of 0 resolves to 2: one dedicated thread runs
     * jobs while the writer streams finished replies.  With 1, every
     * job would run on the writer thread inside wait(), and no job
     * would execute while a reply is being written.
     */
    api::ExecutionServiceOptions service;

    /** Print one serviceStatsJson line on stderr when run() exits. */
    bool emitStats = false;
};

/**
 * One shard process/thread body.  Construct, then run() on the
 * serving thread; stop() from anywhere unblocks it.
 */
class ShardWorker
{
  public:
    /**
     * Bind @p address (see net::connectTo syntax) and stand up the
     * shard-local service.
     * @throws WireError on bind failure.
     */
    explicit ShardWorker(const std::string &address,
                         ShardWorkerOptions options = {});

    ~ShardWorker();

    ShardWorker(const ShardWorker &) = delete;
    ShardWorker &operator=(const ShardWorker &) = delete;

    /** Resolved listen address (tcp port 0 filled in). */
    const std::string &address() const;

    /**
     * Serve until Shutdown/stop(): accept a connection, drain its
     * frames, repeat.  Connection-level protocol violations
     * (WireError) drop the connection and return to accept();
     * per-job failures travel back as Error frames.
     */
    void run();

    /** Unblock run() from another thread (idempotent). */
    void stop();

    /** The shard-local service (stats scraping in tests/bench). */
    api::ExecutionService &service() { return *service_; }

  private:
    void serveConnection(Socket &conn);

    ShardWorkerOptions options_;
    std::unique_ptr<api::ExecutionService> service_;
    Listener listener_;

    std::atomic<bool> stopped_{false};

    std::mutex mutex_;
    int activeConnFd_ = -1; ///< stop() shutdowns the live connection.
};

} // namespace hammer::net

#endif // HAMMER_NET_SHARD_WORKER_HPP
