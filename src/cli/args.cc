/**
 * @file
 * Args implementation.
 */

#include "cli/args.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <span>
#include <string_view>
#include <thread>

#include "core/beam_campaign.hh"
#include "core/parallel_campaign.hh"
#include "sim/logging.hh"
#include "trace/trace_buffer.hh"

namespace xser::cli {

namespace {

/** Upper bound for --trace-buffer-events (2^30 events = ~32 GB). */
constexpr uint64_t maxTraceBufferEvents = uint64_t(1) << 30;

/** One option a command reads, as its --help line shows it. */
struct Option {
    std::string_view name;
    std::string_view metavar; ///< empty for a bare flag
    std::string_view help;
};

// Rows more than one command reads. `--help` is answered before any
// command runs, so no command lists it.
constexpr Option quietOption{"quiet", "",
                             "no warnings, status lines or progress meter"};
constexpr Option seedOption{"seed", "S", "random seed"};
constexpr Option csvOption{"csv", "FILE", "also write the results as CSV"};
constexpr Option traceOption{"trace", "FILE",
                             "record the upset lifecycle as .xtrace"};
constexpr Option metricsOption{"metrics", "FILE",
                               "write the versioned run manifest"};
constexpr Option traceBufferOption{"trace-buffer-events", "N",
                                   "trace events each unit keeps"};
constexpr Option progressOption{"progress", "",
                                "live progress line on stderr (TTY only)"};
constexpr Option portOption{"port", "P", "server port (required)"};
constexpr Option hostOption{"host", "A",
                            "server address (default 127.0.0.1)"};
constexpr Option inOption{"in", "FILE", "the file to read"};

constexpr Option campaignOptions[] = {
    {"scale", "F", "scale the Section 3.5 stop criteria (1 = paper)"},
    seedOption,
    {"replicates", "R", "repeat the campaign under derived seeds"},
    traceOption,
    metricsOption,
    traceBufferOption,
};
constexpr Option specOptions[] = {quietOption};
constexpr Option characterizeOptions[] = {
    {"freq", "HZ", "core clock frequency"},
    {"start", "MV", "first PMD voltage of the sweep"},
    {"stop", "MV", "last PMD voltage of the sweep"},
    {"runs", "N", "runs per voltage step"},
    seedOption,
    csvOption,
    quietOption,
};
constexpr Option sessionOptions[] = {
    {"pmd", "MV", "PMD voltage (required)"},
    {"soc", "MV", "SoC voltage"},
    {"freq", "HZ", "core clock frequency"},
    {"events", "N", "stop after N error events"},
    {"fluence", "NCM2", "or once this fluence (n/cm^2) is reached"},
    {"warmup", "N", "beam-on calibration rounds first"},
    seedOption,
    csvOption,
    traceOption,
    metricsOption,
    traceBufferOption,
    quietOption,
};
constexpr Option campaignCliOptions[] = {
    {"jobs", "N|auto", "worker threads (auto: one per hardware thread)"},
    progressOption,
    csvOption,
    quietOption,
};
constexpr std::string_view campaignNotes[] = {
    "results, traces and every manifest section but \"timing\" are",
    "bit-identical for any --jobs (README 'Running campaigns')",
};
constexpr Option tradeoffOptions[] = {
    {"devices", "N", "fleet size"},
    {"checkpoint", "SEC", "fleet checkpoint interval in seconds"},
    {"altitude", "M", "fleet altitude in meters"},
    {"budget", "SDCS", "also name the best point under SDCS per year"},
    quietOption,
};
constexpr Option avfOptions[] = {
    {"workload", "NAME", "workload whose arrays take the flips"},
    {"trials", "N", "injection trials per cache level"},
    {"flips", "K", "bit flips per trial"},
    {"burst", "SIZE", "adjacent bits per flip, 1-64 (multi-bit upsets)"},
    seedOption,
    quietOption,
};
constexpr Option serverOptions[] = {
    {"host", "A", "listen address (default 127.0.0.1)"},
    {"port", "P", "listen port; 0 picks a free one"},
    {"port-file", "FILE", "write the bound port here after listening"},
    {"max-campaigns", "N", "exit after N campaigns drain (0: never)"},
};
constexpr std::string_view serverNotes[] = {
    "SIGINT/SIGTERM drain: in-flight units finish, unfinished",
    "campaigns fail to their watchers, then the server exits",
};
constexpr Option workerOptions[] = {
    portOption,
    hostOption,
    {"crash-on-shard", "N", "test hook: die on the Nth assignment (0: off)"},
};
constexpr Option clientRunOptions[] = {
    portOption,
    hostOption,
    {"detach", "", "print the campaign id and exit (writes no files)"},
    progressOption,
};
constexpr Option clientAttachOptions[] = {
    portOption,
    hostOption,
    {"id", "CAMPAIGN", "the id `run --detach` printed"},
    progressOption,
};
constexpr Option clientShutdownOptions[] = {portOption, hostOption};
constexpr Option traceFilterOptions[] = {
    inOption,
    {"session", "N", "only this session"},
    {"replicate", "N", "only this replicate"},
    {"array", "NAME", "only arrays whose name contains NAME"},
    {"type", "TYPE", "only this event type (e.g. Injection)"},
    {"outcome", "NAME", "only runs with this outcome (e.g. SDC)"},
    {"voltage", "MV", "only units at this PMD voltage"},
    {"limit", "N", "print at most N events"},
};
constexpr Option traceHistOptions[] = {
    inOption,
    {"metric", "latency|burst", "event gaps or injection cluster sizes"},
};
constexpr Option inOptions[] = {inOption};
constexpr Option traceDiffOptions[] = {
    {"a", "FILE", "the first trace"},
    {"b", "FILE", "the second trace"},
};
constexpr Option metricsDiffOptions[] = {
    {"a", "FILE", "the first manifest"},
    {"b", "FILE", "the second manifest"},
    {"all", "", "also compare the wall-clock \"timing\" section"},
};

/** One command of a tool: what it does and the options it reads. */
struct Command {
    std::string_view tool;
    std::string_view name; ///< empty for the daemons
    std::string_view summary;
    std::span<const Option> own;
    std::span<const Option> shared;
    std::span<const std::string_view> notes;
};

/*
 * Compile-time data, so the check allocates nothing: a table built on
 * the heap at start-up shifted glibc's heap layout enough to raise
 * `xser avf`'s peak RSS from 65.6 to 68.4 MB (x86-64 Linux).
 */
constexpr Command optionTable[] = {
    {"xser", "spec", "print the simulated platform specification",
     specOptions, {}, {}},
    {"xser", "characterize", "sweep the PMD supply and find the safe Vmin",
     characterizeOptions, {}, {}},
    {"xser", "session", "one accelerated beam session", sessionOptions,
     {}, {}},
    {"xser", "campaign", "the paper's four Table 2 sessions",
     campaignCliOptions, campaignOptions, campaignNotes},
    {"xser", "tradeoff", "energy-vs-SDC policy curve for a fleet",
     tradeoffOptions, {}, {}},
    {"xser", "avf", "statistical fault injection per cache level",
     avfOptions, {}, {}},
    {"xser-server", "", "the distributed campaign daemon", serverOptions,
     {}, serverNotes},
    {"xser-worker", "", "run campaign units for an xser-server",
     workerOptions, {}, {}},
    {"xser-client", "run", "submit a campaign and wait for its artifacts",
     clientRunOptions, campaignOptions, {}},
    {"xser-client", "attach", "watch a campaign and print its report",
     clientAttachOptions, {}, {}},
    {"xser-client", "shutdown", "ask the server to drain and exit",
     clientShutdownOptions, {}, {}},
    {"xser-trace", "summarize", "header, per-type totals, per-unit table",
     inOptions, {}, {}},
    {"xser-trace", "filter", "print matching events", traceFilterOptions,
     {}, {}},
    {"xser-trace", "hist", "event-gap or burst-size histogram",
     traceHistOptions, {}, {}},
    {"xser-trace", "to-csv", "flat CSV of every event on stdout",
     inOptions, {}, {}},
    {"xser-trace", "diff", "compare two traces; exit 1 when different",
     traceDiffOptions, {}, {}},
    {"xser-metrics", "summarize", "provenance, counters, headline, timing",
     inOptions, {}, {}},
    {"xser-metrics", "diff", "compare two manifests; exit 1 when different",
     metricsDiffOptions, {}, {}},
    {"xser-metrics", "to-csv", "flat path,value CSV of every scalar",
     inOptions, {}, {}},
};

} // namespace

Args
Args::parse(int argc, const char *const *argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string token = argv[i];
        if (token.rfind("--", 0) == 0) {
            const std::string key = token.substr(2);
            if (key.empty())
                fatal("empty option name '--'");
            std::string value;
            if (i + 1 < argc &&
                std::string(argv[i + 1]).rfind("--", 0) != 0) {
                value = argv[++i];
            }
            if (args.options_.count(key) == 0)
                args.order_.push_back(key);
            args.options_[key] = value;
        } else if (args.command_.empty()) {
            args.command_ = token;
        } else {
            fatal(msg("unexpected positional argument '", token, "'"));
        }
    }
    return args;
}

bool
Args::has(const std::string &key) const
{
    return options_.count(key) > 0;
}

std::string
Args::get(const std::string &key, const std::string &fallback) const
{
    auto found = options_.find(key);
    return found == options_.end() ? fallback : found->second;
}

double
Args::getDouble(const std::string &key, double fallback) const
{
    auto found = options_.find(key);
    if (found == options_.end())
        return fallback;
    char *end = nullptr;
    const double value = std::strtod(found->second.c_str(), &end);
    if (end == found->second.c_str() || *end != '\0')
        fatal(msg("option --", key, " expects a number, got '",
                  found->second, "'"));
    if (!std::isfinite(value))
        fatal(msg("option --", key, " expects a finite number, got '",
                  found->second, "'"));
    return value;
}

uint64_t
Args::getUint(const std::string &key, uint64_t fallback) const
{
    auto found = options_.find(key);
    if (found == options_.end())
        return fallback;
    char *end = nullptr;
    const unsigned long long value =
        std::strtoull(found->second.c_str(), &end, 0);
    if (end == found->second.c_str() || *end != '\0')
        fatal(msg("option --", key, " expects an integer, got '",
                  found->second, "'"));
    return value;
}

uint64_t
Args::getCount(const std::string &key, uint64_t fallback,
               uint64_t min_value, uint64_t max_value) const
{
    const uint64_t value = getUint(key, fallback);
    if (value < min_value || value > max_value)
        fatal(msg("option --", key, " expects a count in [", min_value,
                  ", ", max_value, "], got ", value));
    return value;
}

unsigned
Args::getJobs(const std::string &key, unsigned fallback) const
{
    auto found = options_.find(key);
    if (found == options_.end())
        return fallback;
    if (found->second == "auto") {
        const unsigned hardware = std::thread::hardware_concurrency();
        return hardware > 0 ? hardware : 1;
    }
    const uint64_t value = getUint(key, fallback);
    if (value == 0 || value > 1024)
        fatal(msg("option --", key,
                  " expects 1..1024 or 'auto', got '", found->second,
                  "'"));
    return static_cast<unsigned>(value);
}

void
requireKnownOptions(const Args &args, const std::string &tool)
{
    const auto listed = [](std::span<const Option> options,
                           std::string_view key) {
        return std::ranges::find(options, key, &Option::name) !=
               options.end();
    };
    for (const Command &entry : optionTable) {
        if (entry.tool != tool || entry.name != args.command())
            continue;
        for (const std::string &key : args.keys())
            if (!listed(entry.own, key) && !listed(entry.shared, key))
                fatal(msg("unknown option --", key, " for ", tool,
                          entry.name.empty() ? "" : " ", entry.name,
                          " (see ", tool, " --help)"));
        return;
    }
}

void
printHelp(const std::string &tool)
{
    std::string text;
    for (const Command &entry : optionTable) {
        if (entry.tool != tool)
            continue;
        text.append(text.empty() ? "" : "\n").append(tool);
        if (!entry.name.empty())
            text.append(" ").append(entry.name);
        text.append(": ").append(entry.summary).append("\n");
        for (const auto rows : {entry.own, entry.shared}) {
            for (const Option &option : rows) {
                std::string usage = "  --" + std::string(option.name);
                if (!option.metavar.empty())
                    usage.append(" ").append(option.metavar);
                usage.resize(std::max<size_t>(usage.size() + 2, 27), ' ');
                text.append(usage).append(option.help).append("\n");
            }
        }
        for (const std::string_view note : entry.notes)
            text.append("  ").append(note).append("\n");
    }
    std::fwrite(text.data(), 1, text.size(), stdout);
}

int
vetCommandLine(const Args &args, const std::string &tool)
{
    const std::string &command = args.command();
    // `--help` parses as an option (no command), `help`/`-h` as a
    // command; all three print the help and exit 0.
    if (command == "help" || command == "-h" || args.has("help")) {
        printHelp(tool);
        return 0;
    }
    const auto runs = [&](const Command &entry) {
        return entry.tool == tool && entry.name == command;
    };
    if (std::ranges::none_of(optionTable, runs)) {
        printHelp(tool);
        return 2;
    }
    requireKnownOptions(args, tool);
    return -1;
}

std::string
pathOption(const Args &args, const char *name)
{
    const std::string path = args.get(name, "");
    if (args.has(name) && path.empty())
        fatal(msg("option --", name, " expects a file path"));
    return path;
}

uint64_t
traceBufferEvents(const Args &args)
{
    return args.getCount("trace-buffer-events",
                         trace::TraceBuffer::defaultMaxEvents, 1,
                         maxTraceBufferEvents);
}

core::SessionConfig
sessionConfig(const Args &args)
{
    if (!args.has("pmd"))
        fatal("session requires --pmd <millivolts>");
    core::SessionConfig config;
    config.point.pmdMillivolts = args.getDouble("pmd", 980.0);
    config.point.socMillivolts =
        args.getDouble("soc", std::min(950.0,
                                       config.point.pmdMillivolts + 30));
    config.point.frequencyHz = args.getDouble("freq", 2.4e9);
    config.point.name = config.point.label();
    config.maxErrorEvents = args.getCount(
        "events", 50, 1, std::numeric_limits<uint64_t>::max());
    config.maxFluence = args.getDouble("fluence", 2e10);
    if (!(config.maxFluence > 0.0))
        fatal(msg("option --fluence expects a positive, finite number, "
                  "got '", args.get("fluence", ""), "'"));
    config.warmupRounds = static_cast<unsigned>(
        args.getCount("warmup", config.warmupRounds, 0,
                      std::numeric_limits<unsigned>::max()));
    config.seed = args.getUint("seed", 0x5e5510ULL);
    return config;
}

core::CampaignParams
campaignParams(const Args &args)
{
    core::CampaignParams params;
    params.scale = args.getDouble("scale", params.scale);
    if (!core::validCampaignScale(params.scale))
        fatal(msg("option --scale expects a number in (0, ",
                  core::maxCampaignScale, "], got '",
                  args.get("scale", ""), "'"));
    params.seed = args.getUint("seed", params.seed);
    params.replicates = static_cast<uint32_t>(args.getCount(
        "replicates", 1, 1, core::maxCampaignReplicates));
    params.traceBufferEvents = traceBufferEvents(args);
    params.wantTrace = args.has("trace");
    params.wantMetrics = args.has("metrics");
    params.configHash =
        core::campaignConfigHash(core::buildCampaign(params));
    return params;
}

} // namespace xser::cli
