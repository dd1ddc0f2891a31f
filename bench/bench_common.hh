/**
 * @file
 * Shared helpers for bench_paper and the ablation sweeps.
 *
 * Every campaign bench runs scaled-down sessions by default so the
 * full sweep finishes in minutes; set XSER_FULL=1 for paper-scale stop
 * criteria (Section 3.5: 100+ events or ~1.5e11 n/cm^2 per session)
 * or XSER_SCALE=<f> for anything between. XSER_JOBS=<n> sets the
 * worker-thread count for session execution (default: the hardware
 * count); results are bit-identical for any value.
 */

#ifndef XSER_BENCH_BENCH_COMMON_HH
#define XSER_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "core/beam_campaign.hh"
#include "core/parallel_campaign.hh"
#include "core/test_session.hh"
#include "sim/logging.hh"

namespace xser::bench {

/** Default stop-criteria scale for bench runs. */
constexpr double defaultScale = 0.22;

/**
 * Stop-criteria scale from the environment: XSER_FULL=1 selects the
 * paper-scale campaign, XSER_SCALE=<f> anything between, otherwise
 * `default_scale`. XSER_FULL other than unset, 0 or 1, and a scale
 * that is not a number, has trailing text or fails
 * core::validCampaignScale(), are fatal. This lives in the bench
 * harness (not src/core) on purpose: the determinism contract forbids
 * environment reads inside the simulation core, and xser-lint
 * enforces it.
 */
inline double
campaignScaleFromEnv(double default_scale)
{
    const char *full = std::getenv("XSER_FULL");
    if (full != nullptr && std::strcmp(full, "0") != 0) {
        if (std::strcmp(full, "1") != 0)
            fatal(msg("XSER_FULL expects 0 or 1, got '", full, "'"));
        return 1.0;
    }
    const char *text = std::getenv("XSER_SCALE");
    if (text == nullptr)
        return default_scale;
    char *end = nullptr;
    const double scale = std::strtod(text, &end);
    if (end == text || *end != '\0' || !core::validCampaignScale(scale))
        fatal(msg("XSER_SCALE expects a number in (0, ",
                  core::maxCampaignScale, "], got '", text, "'"));
    return scale;
}

/**
 * Worker threads from XSER_JOBS, which must be a count in --jobs'
 * range 1..1024; the hardware count when unset.
 */
inline unsigned
benchJobs()
{
    const char *text = std::getenv("XSER_JOBS");
    if (text == nullptr) {
        const unsigned hardware = std::thread::hardware_concurrency();
        return hardware > 0 ? hardware : 1;
    }
    char *end = nullptr;
    const unsigned long jobs = std::strtoul(text, &end, 10);
    if (end == text || *end != '\0' || jobs < 1 || jobs > 1024)
        fatal(msg("XSER_JOBS expects 1..1024, got '", text, "'"));
    return static_cast<unsigned>(jobs);
}

/** Title banner of a bench that runs no beam session. */
inline void
banner(const char *title)
{
    std::printf("=== %s ===\n\n", title);
}

/** Title banner naming the session scale the bench runs at. */
inline void
banner(const char *title, double scale)
{
    // One printf: XSER_JOBS is read, and refused, before any output.
    std::printf("=== %s ===\n(session scale %g; XSER_FULL=1 for "
                "paper-scale statistics; %u worker threads, XSER_JOBS to "
                "change)\n\n",
                title, scale, benchJobs());
}

/** Run a campaign config on the worker pool (bit-exact replay). */
inline std::vector<core::SessionResult>
runCampaign(const core::CampaignConfig &config)
{
    core::ParallelRunConfig run;
    run.jobs = benchJobs();
    core::ParallelCampaignRunner runner(config, run);
    return runner.executeAll().replicates.front().sessions;
}

/** Run all four paper sessions (980/930/920 mV, 790 mV @ 900 MHz). */
inline std::vector<core::SessionResult>
runPaperSessions(uint64_t seed = 0x5e5510ULL)
{
    const double scale = campaignScaleFromEnv(defaultScale);
    return runCampaign(core::BeamCampaign::paperCampaign(scale, seed));
}

} // namespace xser::bench

#endif // XSER_BENCH_BENCH_COMMON_HH
