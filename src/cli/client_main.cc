/**
 * @file
 * xser-client: submit campaigns to an xser-server and collect the
 * artifacts (DESIGN.md section 12).
 *
 *   xser-client run --port P [--scale 0.22] [--seed S]
 *               [--replicates R] [--checkpoint on|off]
 *               [--fastpath on|off] [--trace FILE]
 *               [--trace-buffer-events N] [--metrics FILE]
 *               [--progress] [--detach]
 *   xser-client attach --port P --id CAMPAIGN
 *   xser-client shutdown --port P
 *
 * `run` prints the server-rendered report to stdout and writes the
 * --trace / --metrics files locally, so its observable output is
 * byte-identical to a local `xser campaign` run with the same options
 * (the CI determinism gate cmp's exactly this). The campaign options
 * are `xser campaign`'s, parsed by the same cli::campaignParams.
 */

#include <cstdio>
#include <string>

#include "cli/args.hh"
#include "service/client.hh"
#include "sim/logging.hh"

namespace {

using namespace xser;

void
printUsage()
{
    std::printf(
        "usage: xser-client <command> [options]\n"
        "\n"
        "commands:\n"
        "  run       submit a campaign and wait for the artifacts\n"
        "              --port P --host A --scale F --seed S\n"
        "              --replicates R --checkpoint on|off\n"
        "              --fastpath on|off --trace FILE\n"
        "              --trace-buffer-events N --metrics FILE\n"
        "              --progress (live meter on stderr)\n"
        "              --detach (print the campaign id and exit)\n"
        "              --reconnect-attempts N (default 5)\n"
        "  attach    watch an existing campaign\n"
        "              --port P --id CAMPAIGN\n"
        "  shutdown  ask the server to drain and exit\n"
        "              --port P\n");
}

uint16_t
requiredPort(const cli::Args &args)
{
    if (!args.has("port"))
        fatal("xser-client requires --port <server port>");
    return static_cast<uint16_t>(args.getCount("port", 0, 1, 65535));
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

    cli::requireKnownOptions(args, "xser-client");
    service::ClientConfig config;
    config.host = args.get("host", config.host);
    config.reconnectAttempts = static_cast<unsigned>(
        args.getUint("reconnect-attempts", config.reconnectAttempts));

    if (command == "run") {
        config.port = requiredPort(args);
        config.command = service::ClientCommand::Run;
        config.params = cli::campaignParams(args);
        config.tracePath = cli::pathOption(args, "trace");
        config.metricsPath = cli::pathOption(args, "metrics");
        config.detach = args.has("detach");
        config.progress = args.has("progress");
        return service::runClient(config);
    }
    if (command == "attach") {
        config.port = requiredPort(args);
        config.command = service::ClientCommand::Attach;
        config.campaignId = args.getUint("id", 0);
        if (config.campaignId == 0)
            fatal("attach requires --id <campaign id>");
        config.progress = args.has("progress");
        return service::runClient(config);
    }
    if (command == "shutdown") {
        config.port = requiredPort(args);
        config.command = service::ClientCommand::Shutdown;
        return service::runClient(config);
    }
    printUsage();
    return 2;
}
