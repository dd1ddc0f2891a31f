/**
 * @file
 * Args implementation.
 */

#include "cli/args.hh"

#include <cstdlib>
#include <thread>

#include "core/beam_campaign.hh"
#include "core/parallel_campaign.hh"
#include "sim/logging.hh"
#include "trace/trace_buffer.hh"

namespace xser::cli {

namespace {

/** Upper bound for --trace-buffer-events (2^30 events = ~32 GB). */
constexpr uint64_t maxTraceBufferEvents = uint64_t(1) << 30;

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

std::vector<std::string>
Args::keys() const
{
    std::vector<std::string> keys;
    keys.reserve(options_.size());
    for (const auto &[key, value] : options_)
        keys.push_back(key);
    return keys;
}

bool
onOffFlag(const Args &args, const char *name)
{
    const std::string value = args.get(name, "on");
    if (value == "on")
        return true;
    if (value == "off")
        return false;
    fatal(msg("option --", name, " expects 'on' or 'off'"));
    return true;
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
    params.checkpoint = onOffFlag(args, "checkpoint");
    params.fastpath = onOffFlag(args, "fastpath");
    params.traceBufferEvents = traceBufferEvents(args);
    params.wantTrace = args.has("trace");
    params.wantMetrics = args.has("metrics");
    params.configHash =
        core::campaignConfigHash(core::buildCampaign(params));
    return params;
}

} // namespace xser::cli
