/**
 * @file
 * xser-server: the distributed campaign daemon (DESIGN.md section 12).
 *
 *   xser-server [--host 127.0.0.1] [--port 0] [--port-file FILE]
 *               [--max-campaigns N] [--shard-replicates N]
 *               [--handshake-timeout SEC] [--idle-timeout SEC]
 *
 * SIGINT/SIGTERM request a graceful drain: in-flight shards finish,
 * unfinished campaigns are failed to their watchers, outboxes flush,
 * then the process exits.
 */

#include <csignal>
#include <cstdio>
#include <string>

#include "cli/args.hh"
#include "service/server.hh"
#include "sim/logging.hh"

namespace {

using namespace xser;

void
printUsage()
{
    std::printf(
        "usage: xser-server [options]\n"
        "\n"
        "options:\n"
        "  --host A            listen address (default 127.0.0.1)\n"
        "  --port P            listen port; 0 picks a free port\n"
        "  --port-file FILE    write the bound port here after listen\n"
        "  --max-campaigns N   exit after N campaigns drain (0 = run\n"
        "                      forever)\n"
        "  --shard-replicates N  replicates per work-queue shard\n"
        "                      (default 1)\n"
        "  --handshake-timeout SEC  drop un-helloed connections\n"
        "                      (default 10)\n"
        "  --idle-timeout SEC  drop silent idle connections; never\n"
        "                      applied to busy workers (default 60)\n"
        "\n"
        "SIGINT/SIGTERM drain gracefully: in-flight shards finish,\n"
        "unfinished campaigns fail to their watchers, then exit.\n");
}

extern "C" void
requestShutdown(int)
{
    service::serverShutdownFlag = 1;
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

    cli::requireKnownOptions(args, "xser-server");
    service::ServerConfig config;
    config.host = args.get("host", config.host);
    config.port = static_cast<uint16_t>(
        args.getCount("port", 0, 0, 65535));
    config.portFile = args.get("port-file", "");
    config.maxCampaigns = static_cast<unsigned>(
        args.getUint("max-campaigns", 0));
    config.shardReplicates = static_cast<uint32_t>(
        args.getCount("shard-replicates", 1, 1, 1u << 20));
    config.handshakeTimeoutSeconds =
        args.getDouble("handshake-timeout",
                       config.handshakeTimeoutSeconds);
    config.idleTimeoutSeconds =
        args.getDouble("idle-timeout", config.idleTimeoutSeconds);

    struct sigaction action = {};
    action.sa_handler = requestShutdown;
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);

    return service::runServer(config);
}
