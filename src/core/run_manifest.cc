/**
 * @file
 * Run-manifest assembly implementation.
 */

#include "core/run_manifest.hh"

#include <cstdio>

#include "sim/logging.hh"

namespace xser::core {

namespace {

/** Hex rendering of a 64-bit hash, matching xser-trace's headers. */
std::string
hashHex(uint64_t hash)
{
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                  static_cast<unsigned long long>(hash));
    return buffer;
}

void
writeRunSection(telemetry::JsonWriter &json,
                const ManifestRunInfo &info)
{
    json.beginObject("run");
    json.member("tool", info.tool);
    json.member("git_describe", telemetry::gitDescribe());
    json.member("config_hash", hashHex(info.configHash));
    json.member("seed", info.seed);
    if (info.scale >= 0.0)
        json.member("scale", info.scale);
    json.member("sessions", static_cast<uint64_t>(info.sessions));
    json.member("replicates", static_cast<uint64_t>(info.replicates));
    json.member("fastpath", info.fastpath);
    json.endObject();
}

void
writeHeadline(telemetry::JsonWriter &json,
              const std::vector<SessionAggregate> &sessions)
{
    json.beginArray("headline");
    for (size_t s = 0; s < sessions.size(); ++s) {
        const SessionAggregate &aggregate = sessions[s];
        const FitBreakdown fit = aggregate.pooledFit();
        const DcsBreakdown dcs = aggregate.pooledDcs();
        json.beginObject();
        json.member("session", static_cast<uint64_t>(s));
        json.member("label", aggregate.point.label());
        json.member("runs", aggregate.runs);
        json.member("fluence", aggregate.fluence);
        json.member("events", aggregate.events.total());
        json.member("upsets_detected", aggregate.upsetsDetected);
        json.member("raw_upset_events", aggregate.rawUpsetEvents);
        json.member("fit_total", fit.total.fit);
        json.member("fit_total_ci_lower", fit.total.ci.lower);
        json.member("fit_total_ci_upper", fit.total.ci.upper);
        json.member("fit_sdc", fit.sdc.fit);
        json.member("dcs_total", dcs.total.dcs);
        json.member("dcs_sdc", dcs.sdc.dcs);
        json.endObject();
    }
    json.endArray();
}

} // namespace

std::string
renderRunManifest(const ManifestRunInfo &info,
                  const std::vector<SessionAggregate> &sessions,
                  const telemetry::MetricRegistry *registry,
                  unsigned jobs, double elapsed_seconds)
{
    telemetry::JsonWriter json;
    json.beginObject();
    telemetry::writeSchemaPreamble(json);
    writeRunSection(json, info);
    const telemetry::MetricShard merged =
        registry != nullptr ? registry->merged()
                            : telemetry::MetricShard();
    telemetry::writeCounters(json, merged);
    telemetry::writeDistributions(json, merged);
    writeHeadline(json, sessions);
    if (registry != nullptr) {
        telemetry::writeTiming(json, *registry, jobs,
                               elapsed_seconds);
    } else {
        const telemetry::MetricRegistry empty(1);
        telemetry::writeTiming(json, empty, jobs, elapsed_seconds);
    }
    json.endObject();
    return json.take();
}

std::string
renderCampaignManifest(const CampaignParams &params,
                       const ReplicatedCampaignResult &sweep,
                       const telemetry::MetricRegistry *registry,
                       unsigned jobs, double elapsed_seconds)
{
    ManifestRunInfo info;
    info.tool = "xser campaign";
    info.configHash = params.configHash;
    info.seed = params.seed;
    info.scale = params.scale;
    info.sessions = static_cast<unsigned>(sweep.sessions.size());
    info.replicates = params.replicates;
    info.fastpath = params.fastpath;
    return renderRunManifest(info, sweep.sessions, registry, jobs,
                             elapsed_seconds);
}

void
writeManifestFile(const std::string &path, const std::string &text)
{
    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (file == nullptr)
        fatal(msg("cannot open metrics manifest for writing: ", path));
    const size_t written =
        std::fwrite(text.data(), 1, text.size(), file);
    const int close_status = std::fclose(file);
    if (written != text.size() || close_status != 0)
        fatal(msg("short write to metrics manifest: ", path));
}

} // namespace xser::core
