/**
 * @file
 * The xser-worker shard executor: connects to an xser-server, pulls
 * (session, replicate) units, runs them through core::ShardExecutor,
 * and answers each with one atomic ShardResult frame (DESIGN.md
 * section 12).
 *
 * The worker is single-threaded: it polls the connection while idle
 * (heartbeating so the server's idle timeout never fires) and computes
 * synchronously while assigned -- the server knows not to expect
 * liveness from a busy worker. It holds one sealed and verified golden
 * prefix, reused across campaigns while their prefix key matches and
 * resealed when it does not, mirroring the local runner's phase 1.
 */

#ifndef XSER_SERVICE_WORKER_HH
#define XSER_SERVICE_WORKER_HH

#include <cstdint>
#include <string>

namespace xser::service {

/** xser-worker configuration. */
struct WorkerConfig {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    /**
     * Test hook: exit the process (simulating a crash) upon receiving
     * the Nth shard assignment, before replying. 0 disables. The
     * requeue ctests use this to prove a mid-shard worker death never
     * changes campaign bytes.
     */
    unsigned crashOnShard = 0;
};

/** Run the worker loop; returns the process exit code. */
int runWorker(const WorkerConfig &config);

} // namespace xser::service

#endif // XSER_SERVICE_WORKER_HH
