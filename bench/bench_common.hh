/**
 * @file
 * Shared helpers for the bench binaries.
 *
 * Every binary runs scaled-down sessions by default so the full bench
 * sweep finishes in minutes; set XSER_FULL=1 for paper-scale stop
 * criteria (Section 3.5: 100+ events or ~1.5e11 n/cm^2 per session)
 * or XSER_SCALE=<f> for anything between. XSER_JOBS=<n> sets the
 * worker-thread count for session execution (default: the hardware
 * count); results are bit-identical for any value.
 */

#ifndef XSER_BENCH_BENCH_COMMON_HH
#define XSER_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/beam_campaign.hh"
#include "core/parallel_campaign.hh"
#include "core/test_session.hh"
#include "sim/logging.hh"
#include "telemetry/json.hh"
#include "telemetry/stopwatch.hh"

namespace xser::bench {

/** Schema identifier every BENCH_*.json record carries. */
constexpr const char *benchRecordSchema = "xser-bench-record";

/** Current bench-record schema version. */
constexpr uint32_t benchRecordSchemaVersion = 1;

/**
 * The one code path every bench binary's BENCH_*.json record goes
 * through: a schema-versioned document built on telemetry::JsonWriter,
 * so CI artifact consumers can key on `schema`/`schema_version`/`bench`
 * instead of guessing at per-bench hand-rolled layouts.
 *
 *     bench::BenchReport report("fastpath");
 *     report.add("speedup", speedup);
 *     report.beginSection("seconds_by_mode");
 *     report.add("off", off.seconds);
 *     report.endSection();
 *     report.write(out_path);
 */
class BenchReport
{
  public:
    explicit BenchReport(const char *bench_name)
    {
        json_.beginObject();
        json_.member("schema", benchRecordSchema);
        json_.member("schema_version",
                     static_cast<uint64_t>(benchRecordSchemaVersion));
        json_.member("bench", bench_name);
    }

    /** Add one scalar member (string/number/bool). */
    template <typename T>
    BenchReport &
    add(const char *name, T value)
    {
        json_.member(name, value);
        return *this;
    }

    /** Open a nested object member. */
    BenchReport &
    beginSection(const char *name)
    {
        json_.beginObject(name);
        return *this;
    }

    BenchReport &
    endSection()
    {
        json_.endObject();
        return *this;
    }

    /** Close the record and write it; fatal on I/O failure. */
    void
    write(const std::string &path)
    {
        json_.endObject();
        const std::string text = json_.take();
        std::FILE *file = std::fopen(path.c_str(), "wb");
        if (file == nullptr)
            fatal(msg("cannot open bench record for writing: ", path));
        const size_t written =
            std::fwrite(text.data(), 1, text.size(), file);
        const int close_status = std::fclose(file);
        if (written != text.size() || close_status != 0)
            fatal(msg("short write to bench record: ", path));
        std::printf("wrote %s\n", path.c_str());
    }

  private:
    telemetry::JsonWriter json_;
};

/** Default stop-criteria scale for bench runs. */
constexpr double defaultScale = 0.22;

/**
 * Stop-criteria scale from the environment: XSER_FULL=1 selects the
 * paper-scale campaign, XSER_SCALE=<f> anything between, otherwise
 * `default_scale`. This lives in the bench harness (not src/core) on
 * purpose: the determinism contract forbids environment reads inside
 * the simulation core, and xser-lint enforces it.
 */
inline double
campaignScaleFromEnv(double default_scale)
{
    const char *full = std::getenv("XSER_FULL");
    if (full != nullptr && full[0] == '1')
        return 1.0;
    const char *scale = std::getenv("XSER_SCALE");
    if (scale != nullptr) {
        const double parsed = std::atof(scale);
        if (parsed > 0.0)
            return parsed;
    }
    return default_scale;
}

/** Worker threads from XSER_JOBS; hardware count when unset. */
inline unsigned
benchJobs()
{
    if (const char *env = std::getenv("XSER_JOBS")) {
        const long parsed = std::atol(env);
        if (parsed > 0)
            return static_cast<unsigned>(parsed);
    }
    const unsigned hardware = std::thread::hardware_concurrency();
    return hardware > 0 ? hardware : 1;
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
    std::printf("=== %s ===\n", title);
    std::printf("(session scale %g; XSER_FULL=1 for paper-scale "
                "statistics; %u worker threads, XSER_JOBS to change)"
                "\n\n",
                scale, benchJobs());
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

/** One timed end-to-end campaign run: the A/B perf gates' unit. */
struct TimedRun {
    double seconds = 0.0;
    core::ReplicatedCampaignResult result;
};

/** Time `run` of `config` on the worker pool, tracing into `writer`. */
inline TimedRun
timedRun(const core::CampaignConfig &config,
         const core::ParallelRunConfig &run,
         trace::TraceWriter *writer = nullptr)
{
    core::ParallelCampaignRunner runner(config, run);
    TimedRun timed;
    const telemetry::Stopwatch watch;
    timed.result = runner.executeAll(writer);
    timed.seconds = watch.seconds();
    return timed;
}

} // namespace xser::bench

#endif // XSER_BENCH_BENCH_COMMON_HH
