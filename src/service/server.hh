/**
 * @file
 * The xser-server campaign service: a single-threaded poll() event
 * loop that owns a queue of (session, replicate-range) shards, hands
 * them to connected workers, and finishes each campaign with the same
 * core merge and renderers as a local run, so the artifacts -- report
 * text, .xtrace bytes, run manifest -- are bit-identical to a local
 * `xser campaign --jobs N` run (DESIGN.md section 12).
 *
 * Fault model: a worker that disconnects mid-shard contributes
 * nothing (results travel in one atomic ShardResult frame), so the
 * server simply requeues the shard's coordinates for the next idle
 * worker; determinism of core::ShardExecutor guarantees the re-run is
 * bit-identical to what the dead worker would have produced. Clients
 * may disconnect and re-attach by campaign id at any time.
 */

#ifndef XSER_SERVICE_SERVER_HH
#define XSER_SERVICE_SERVER_HH

#include <csignal>
#include <cstdint>
#include <string>

namespace xser::service {

/** xser-server configuration. */
struct ServerConfig {
    /** Listen address (numeric IPv4). */
    std::string host = "127.0.0.1";
    /** Listen port; 0 picks a free port (see portFile). */
    uint16_t port = 0;
    /** When nonempty, the bound port is written here after listen. */
    std::string portFile;
    /**
     * Exit once this many campaigns have finished and their artifacts
     * have drained to the watching clients; 0 runs forever. Tests use
     * this for a clean, deterministic server exit.
     */
    unsigned maxCampaigns = 0;
    /** Replicates per shard (shard = session x replicate range). */
    uint32_t shardReplicates = 1;
    /** Seconds a connection may sit un-helloed before being dropped. */
    double handshakeTimeoutSeconds = 10.0;
    /**
     * Seconds of silence after which an idle connection is dropped.
     * Never applied to a worker with an in-flight shard (a
     * single-threaded worker cannot heartbeat while computing).
     */
    double idleTimeoutSeconds = 60.0;
};

/**
 * Flag a signal handler sets to request a graceful drain: finish
 * in-flight shards, fail unfinished campaigns, flush, exit.
 */
extern volatile std::sig_atomic_t serverShutdownFlag;

/** Run the server loop; returns the process exit code. */
int runServer(const ServerConfig &config);

} // namespace xser::service

#endif // XSER_SERVICE_SERVER_HH
