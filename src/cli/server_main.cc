/**
 * @file
 * xser-server: the distributed campaign daemon (DESIGN.md section 12).
 * `xser-server --help` lists its options.
 *
 * SIGINT/SIGTERM request a graceful drain: in-flight shards finish,
 * unfinished campaigns are failed to their watchers, outboxes flush,
 * then the process exits.
 */

#include <csignal>
#include <limits>
#include <string>

#include "cli/args.hh"
#include "service/server.hh"
#include "sim/logging.hh"

namespace {

using namespace xser;

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
    if (const int status = cli::vetCommandLine(args, "xser-server");
        status >= 0)
        return status;
    service::ServerConfig config;
    config.host = args.get("host", config.host);
    config.port = static_cast<uint16_t>(
        args.getCount("port", 0, 0, 65535));
    config.portFile = args.get("port-file", "");
    config.maxCampaigns = static_cast<unsigned>(
        args.getCount("max-campaigns", 0, 0,
                      std::numeric_limits<unsigned>::max()));

    struct sigaction action = {};
    action.sa_handler = requestShutdown;
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);

    return service::runServer(config);
}
