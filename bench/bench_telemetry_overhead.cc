/**
 * @file
 * Overhead gate for the telemetry subsystem: run the same campaign
 * with metrics collection off (no registry -- every count() is a
 * null-check) and on (per-worker shards, phase timers, distribution
 * samples), assert the aggregates are bit-identical, and gate the
 * on/off wall-clock ratio so instrumentation creep fails CI before it
 * taxes every campaign.
 *
 * Each mode takes the best of two runs: telemetry's cost is small
 * against scheduler noise, and min-of-N is the standard way to keep a
 * ratio gate from flapping.
 *
 * Usage: bench_telemetry_overhead [output.json] [max-ratio]
 *
 * Exit status is nonzero when the aggregates diverge (telemetry
 * perturbed the simulation) or when metrics-on runs more than
 * `max-ratio` times metrics-off wall-clock -- CI passes 1.02, the
 * 2% overhead ceiling DESIGN.md section 11 commits to.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.hh"
#include "telemetry/metrics.hh"

int
main(int argc, char **argv)
{
    using namespace xser;
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_telemetry.json";
    const double max_ratio = argc > 2 ? std::atof(argv[2]) : 0.0;

    // Small smoke scale by default: the point is the ratio and the
    // bit-identity check, not statistics (XSER_SCALE raises it).
    const double scale = bench::campaignScaleFromEnv(0.02);
    bench::banner("Telemetry overhead gate (metrics off vs on)", scale);
    const core::CampaignConfig config =
        core::BeamCampaign::paperCampaign(scale);

    // Every metered run records into a fresh registry.
    const auto timed = [&config](bool metrics) {
        core::ParallelRunConfig run;
        run.jobs = bench::benchJobs();
        run.replicates = 2;
        telemetry::MetricRegistry registry(run.jobs);
        if (metrics)
            run.metrics = &registry;
        return bench::timedRun(config, run);
    };

    // Interleave the modes so slow drift (thermal, other tenants)
    // lands on both sides of the ratio.
    bench::TimedRun off = timed(false);
    bench::TimedRun on = timed(true);
    const bench::TimedRun off2 = timed(false);
    const bench::TimedRun on2 = timed(true);
    off.seconds = std::min(off.seconds, off2.seconds);
    on.seconds = std::min(on.seconds, on2.seconds);

    const bool identical =
        off.result.replicates == on.result.replicates &&
        off.result.replicates == off2.result.replicates &&
        off.result.replicates == on2.result.replicates;
    const double ratio = on.seconds / off.seconds;

    std::printf("metrics off: %.2f s (best of 2)\n", off.seconds);
    std::printf("metrics on:  %.2f s (best of 2)\n", on.seconds);
    std::printf("on/off ratio: %.4f\n", ratio);
    std::printf("bit-identical aggregates: %s\n",
                identical ? "yes" : "NO -- TELEMETRY PERTURBED RESULTS");

    bench::BenchReport report("telemetry_overhead");
    report.add("scale", scale);
    report.add("jobs", static_cast<uint64_t>(bench::benchJobs()));
    report.add("metrics_off_seconds", off.seconds);
    report.add("metrics_on_seconds", on.seconds);
    report.add("on_over_off_ratio", ratio);
    report.add("aggregates_identical", identical);
    report.write(out_path);

    if (!identical)
        return 1;
    if (max_ratio > 0.0 && ratio > max_ratio) {
        std::printf("REGRESSION: ratio %.4f above the %.4f ceiling\n",
                    ratio, max_ratio);
        return 1;
    }
    return 0;
}
