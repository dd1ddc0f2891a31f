/**
 * @file
 * xser-client: submit campaigns to an xser-server and collect the
 * artifacts (DESIGN.md section 12). `xser-client --help` lists the
 * run, attach and shutdown commands and their options.
 *
 * `run` prints the server-rendered report to stdout and writes the
 * --trace / --metrics files locally, so its observable output is
 * byte-identical to a local `xser campaign` run with the same options
 * (the CI determinism gate cmp's exactly this). The campaign options
 * are `xser campaign`'s, parsed by the same cli::campaignParams.
 */

#include <string>

#include "cli/args.hh"
#include "service/client.hh"
#include "sim/logging.hh"

namespace {

using namespace xser;

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
    if (const int status = cli::vetCommandLine(args, "xser-client");
        status >= 0)
        return status;
    const std::string &command = args.command();
    service::ClientConfig config;
    config.host = args.get("host", config.host);

    if (command == "run") {
        config.port = requiredPort(args);
        config.command = service::ClientCommand::Run;
        config.detach = args.has("detach");
        // A detached client exits before the artifacts exist, and
        // `attach` has nowhere to write them.
        if (config.detach && (args.has("trace") || args.has("metrics")))
            fatal("xser-client run: --detach conflicts with --trace "
                  "and --metrics (a detached run writes no files)");
        config.params = cli::campaignParams(args);
        config.tracePath = cli::pathOption(args, "trace");
        config.metricsPath = cli::pathOption(args, "metrics");
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
    cli::printHelp("xser-client");
    return 2;
}
