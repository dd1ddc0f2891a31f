/**
 * @file
 * Run-manifest assembly: turns a campaign's merged aggregates and the
 * telemetry registry into the versioned JSON manifest `--metrics`
 * writes (schema "xser-run-manifest", see telemetry/manifest.hh).
 */

#ifndef XSER_CORE_RUN_MANIFEST_HH
#define XSER_CORE_RUN_MANIFEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/parallel_campaign.hh"
#include "telemetry/manifest.hh"

namespace xser::core {

/** Deterministic identification of one run (the "run" section). */
struct ManifestRunInfo {
    std::string tool;         ///< e.g. "xser campaign"
    uint64_t configHash = 0;  ///< campaignConfigHash of the config
    uint64_t seed = 0;
    double scale = -1.0;      ///< stop-criteria scale; <0 = omit
    unsigned sessions = 0;
    unsigned replicates = 1;
    bool fastpath = true;
};

/**
 * Render the full manifest document. Everything outside "timing" is a
 * pure function of (config, seed): bit-identical across repeated runs
 * and any --jobs. `registry` may be null (sections emit zero shards'
 * worth of data); `jobs`/`elapsed_seconds` land under "timing" only.
 */
std::string
renderRunManifest(const ManifestRunInfo &info,
                  const std::vector<SessionAggregate> &sessions,
                  const telemetry::MetricRegistry *registry,
                  unsigned jobs, double elapsed_seconds);

/**
 * The manifest of a paper campaign: renderRunManifest() with the "run"
 * section built from the campaign's parameters, so the CLI and the
 * campaign service record the same run identically.
 */
std::string
renderCampaignManifest(const CampaignParams &params,
                       const ReplicatedCampaignResult &sweep,
                       const telemetry::MetricRegistry *registry,
                       unsigned jobs, double elapsed_seconds);

/** Write `text` to `path`; fatal on I/O failure. */
void writeManifestFile(const std::string &path,
                       const std::string &text);

} // namespace xser::core

#endif // XSER_CORE_RUN_MANIFEST_HH
