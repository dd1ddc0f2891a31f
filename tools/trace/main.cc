/**
 * @file
 * xser-trace: inspect and compare .xtrace lifecycle trace files.
 * `xser-trace --help` lists the commands and their options.
 *
 * Exit status: 0 on success, 1 on an unreadable/corrupt trace or a
 * diff mismatch, 2 on usage errors.
 */

#include <cstdio>
#include <string>

#include "cli/args.hh"
#include "sim/logging.hh"
#include "trace/trace_tool.hh"

namespace {

using namespace xser;

/** Load a trace or die with its decode error. */
trace::TraceFile
load(const cli::Args &args, const std::string &key)
{
    const std::string path = args.get(key, "");
    if (path.empty())
        fatal(msg("missing required option --", key, " <file>"));
    trace::TraceFile file = trace::readTraceFile(path);
    if (!file.ok)
        fatal(msg(path, ": ", file.error));
    return file;
}

int
cmdFilter(const cli::Args &args)
{
    tracetool::FilterSpec spec;
    if (args.has("session")) {
        spec.hasSession = true;
        spec.session = static_cast<uint32_t>(
            args.getCount("session", 0, 0, UINT32_MAX));
    }
    if (args.has("replicate")) {
        spec.hasReplicate = true;
        spec.replicate = static_cast<uint32_t>(
            args.getCount("replicate", 0, 0, UINT32_MAX));
    }
    spec.array = args.get("array", "");
    if (args.has("type")) {
        const std::string name = args.get("type", "");
        if (!trace::eventTypeFromName(name, spec.type))
            fatal(msg("unknown event type '", name, "'"));
        spec.hasType = true;
    }
    spec.outcome = args.get("outcome", "");
    if (args.has("voltage")) {
        spec.hasVoltage = true;
        spec.pmdMillivolts = args.getDouble("voltage", 0.0);
    }
    spec.limit = args.getCount("limit", spec.limit, 1,
                               uint64_t(1) << 32);
    std::printf("%s",
                tracetool::filterEvents(load(args, "in"), spec).c_str());
    return 0;
}

int
cmdDiff(const cli::Args &args)
{
    const trace::TraceFile a = load(args, "a");
    const trace::TraceFile b = load(args, "b");
    bool identical = false;
    std::printf("%s", tracetool::diffTraces(a, b, identical).c_str());
    return identical ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const cli::Args args = cli::Args::parse(argc, argv);
    if (const int status = cli::vetCommandLine(args, "xser-trace");
        status >= 0)
        return status;
    const std::string &command = args.command();
    if (command == "summarize") {
        std::printf("%s",
                    tracetool::summarize(load(args, "in")).c_str());
        return 0;
    }
    if (command == "filter")
        return cmdFilter(args);
    if (command == "hist") {
        std::printf("%s",
                    tracetool::histogram(load(args, "in"),
                                         args.get("metric", "latency"))
                        .c_str());
        return 0;
    }
    if (command == "to-csv") {
        std::printf("%s", tracetool::toCsv(load(args, "in")).c_str());
        return 0;
    }
    if (command == "diff")
        return cmdDiff(args);
    cli::printHelp("xser-trace");
    return 2;
}
