/**
 * @file
 * xser-worker: a shard executor for xser-server (DESIGN.md
 * section 12).
 *
 *   xser-worker --port P [--host 127.0.0.1] [--heartbeat SEC]
 *
 * Connects to the server, announces itself, and executes
 * (session, replicate-range) shards until the server closes the
 * connection. Exit 0 on a server-initiated close, 1 on protocol
 * errors.
 */

#include <cstdio>
#include <string>

#include "cli/args.hh"
#include "service/worker.hh"
#include "sim/logging.hh"

namespace {

using namespace xser;

void
printUsage()
{
    std::printf(
        "usage: xser-worker --port P [options]\n"
        "\n"
        "options:\n"
        "  --port P           server port (required)\n"
        "  --host A           server address (default 127.0.0.1)\n"
        "  --heartbeat SEC    idle heartbeat interval (default 2)\n"
        "  --crash-on-shard N test hook: exit abruptly upon receiving\n"
        "                     the Nth shard assignment, simulating a\n"
        "                     crashed worker (0 = disabled)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const cli::Args args = cli::Args::parse(argc, argv);
    const std::string &command = args.command();
    if (command == "help" || command == "-h" || args.has("help")) {
        printUsage();
        return 0;
    }
    if (!command.empty()) {
        printUsage();
        return 2;
    }
    cli::requireKnownOptions(args, "xser-worker");
    if (!args.has("port"))
        fatal("xser-worker requires --port <server port>");

    service::WorkerConfig config;
    config.host = args.get("host", config.host);
    config.port = static_cast<uint16_t>(
        args.getCount("port", 0, 1, 65535));
    config.crashOnShard = static_cast<unsigned>(
        args.getUint("crash-on-shard", 0));
    config.heartbeatSeconds =
        args.getDouble("heartbeat", config.heartbeatSeconds);
    return service::runWorker(config);
}
