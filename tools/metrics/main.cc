/**
 * @file
 * xser-metrics: inspect and compare run manifests (--metrics output).
 * `xser-metrics --help` lists the commands and their options.
 *
 * `diff` skips the wall-clock "timing" section unless --all is given,
 * so two runs of the same experiment -- at any --jobs -- exit 0.
 *
 * Exit status: 0 on success, 1 on an unreadable/invalid manifest or a
 * diff mismatch, 2 on usage errors.
 */

#include <cstdio>
#include <string>

#include "cli/args.hh"
#include "metrics/metrics_tool.hh"
#include "sim/logging.hh"

namespace {

using namespace xser;

/** Load a manifest or die with its decode error. */
metricstool::ManifestFile
load(const cli::Args &args, const std::string &key)
{
    const std::string path = args.get(key, "");
    if (path.empty())
        fatal(msg("missing required option --", key, " <file>"));
    metricstool::ManifestFile file = metricstool::loadManifest(path);
    if (!file.ok)
        fatal(msg(path, ": ", file.error));
    return file;
}

int
cmdDiff(const cli::Args &args)
{
    const metricstool::ManifestFile a = load(args, "a");
    const metricstool::ManifestFile b = load(args, "b");
    bool identical = false;
    std::printf("%s",
                metricstool::diffManifests(a, b, args.has("all"),
                                           identical)
                    .c_str());
    return identical ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const cli::Args args = cli::Args::parse(argc, argv);
    if (const int status = cli::vetCommandLine(args, "xser-metrics");
        status >= 0)
        return status;
    const std::string &command = args.command();
    if (command == "summarize") {
        std::printf("%s",
                    metricstool::summarize(load(args, "in")).c_str());
        return 0;
    }
    if (command == "diff")
        return cmdDiff(args);
    if (command == "to-csv") {
        std::printf("%s",
                    metricstool::toCsv(load(args, "in")).c_str());
        return 0;
    }
    cli::printHelp("xser-metrics");
    return 2;
}
