/**
 * @file
 * xser-worker: a shard executor for xser-server (DESIGN.md
 * section 12). `xser-worker --help` lists its options.
 *
 * Connects to the server, announces itself, and executes
 * (session, replicate) units until the server closes the connection.
 * Exit 0 on a server-initiated close, 1 on protocol errors.
 */

#include <limits>
#include <string>

#include "cli/args.hh"
#include "service/worker.hh"
#include "sim/logging.hh"

int
main(int argc, char **argv)
{
    using namespace xser;
    const cli::Args args = cli::Args::parse(argc, argv);
    if (const int status = cli::vetCommandLine(args, "xser-worker");
        status >= 0)
        return status;
    if (!args.has("port"))
        fatal("xser-worker requires --port <server port>");

    service::WorkerConfig config;
    config.host = args.get("host", config.host);
    config.port = static_cast<uint16_t>(
        args.getCount("port", 0, 1, 65535));
    config.crashOnShard = static_cast<unsigned>(
        args.getCount("crash-on-shard", 0, 0,
                      std::numeric_limits<unsigned>::max()));
    return service::runWorker(config);
}
