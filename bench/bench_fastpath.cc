/**
 * @file
 * Throughput gate for the event-driven fast path: run the same reduced
 * campaign with the fast path off (the reference configuration every
 * equivalence test compares against) and on (the default), assert the
 * results are bit-identical, and emit the measurement as
 * BENCH_fastpath.json for CI artifact upload and regression tracking.
 *
 * Usage: bench_fastpath [output.json] [min-speedup]
 *
 * Exit status is nonzero when the aggregates diverge (equivalence
 * broken) or when the measured fast-on/fast-off speedup falls below
 * `min-speedup` (performance regression) -- CI passes a floor 20%
 * under the recorded reference so routine noise passes but a real
 * regression fails the job.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/parallel_campaign.hh"
#include "telemetry/stopwatch.hh"

namespace {

using namespace xser;

/**
 * Recorded before/after of the tentpole change on this repo's pinned
 * throughput benchmark (bench_parallel_scaling, XSER_SCALE=0.01
 * XSER_JOBS=4, single-hardware-thread container): wall-clock for the
 * 8-unit sweep at 1 worker dropped from 142.28 s (seed implementation,
 * per-quantum Poisson sampling and full-codec reads everywhere) to
 * 20.84 s. These constants are documentation of that measurement, not
 * inputs to the gate below.
 */
constexpr double referenceSeedSeconds = 142.28;
constexpr double referenceCurrentSeconds = 20.84;

/*
 * Recorded measurement of the checkpoint/fork engine on its own gate
 * (bench_checkpoint: 2 cliff-voltage sessions x 8 replicates, 1
 * worker): 17.90 s with the golden prefix replayed per replicate vs
 * 7.84 s forking one prefix snapshot per session. Documentation of
 * the trajectory, not an input to this binary's gate.
 */
constexpr double referenceCheckpointOffSeconds = 17.90;
constexpr double referenceCheckpointOnSeconds = 7.84;

/** One timed end-to-end campaign run. */
struct Timed {
    double seconds = 0.0;
    core::CampaignResult result;
};

Timed
timedRun(const core::CampaignConfig &config)
{
    core::ParallelRunConfig run;
    run.jobs = bench::benchJobs();
    core::ParallelCampaignRunner runner(config, run);
    Timed timed;
    const telemetry::Stopwatch watch;
    timed.result = runner.executeAll().replicates.front();
    timed.seconds = watch.seconds();
    return timed;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_fastpath.json";
    const double min_speedup = argc > 2 ? std::atof(argv[2]) : 0.0;

    bench::banner("Fast-path throughput gate");
    // Small smoke scale by default: the point is the ratio and the
    // equivalence check, not statistics (XSER_SCALE raises it).
    const double scale = bench::campaignScaleFromEnv(0.02);

    core::CampaignConfig config = core::BeamCampaign::paperCampaign(scale);
    core::setFastPath(config, false);
    const Timed off = timedRun(config);
    core::setFastPath(config, true);
    const Timed on = timedRun(config);

    const bool identical = off.result == on.result;
    const double speedup = off.seconds / on.seconds;
    const double sessions = static_cast<double>(on.result.sessions.size());

    std::printf("fast path off: %.2f s\n", off.seconds);
    std::printf("fast path on:  %.2f s\n", on.seconds);
    std::printf("speedup:       %.2fx\n", speedup);
    std::printf("bit-identical results: %s\n",
                identical ? "yes" : "NO -- EQUIVALENCE BROKEN");

    bench::BenchReport report("fastpath");
    report.add("scale", scale);
    report.add("jobs", static_cast<uint64_t>(bench::benchJobs()));
    report.add("fast_off_seconds", off.seconds);
    report.add("fast_on_seconds", on.seconds);
    report.add("speedup_fast_on_over_off", speedup);
    report.add("sessions_per_second_fast_on", sessions / on.seconds);
    report.add("sessions_per_second_fast_off", sessions / off.seconds);
    report.add("aggregates_identical", identical);
    report.beginSection("reference_parallel_scaling");
    report.add("bench", "bench_parallel_scaling XSER_SCALE=0.01 "
                        "XSER_JOBS=4, 1 worker row");
    report.add("seed_seconds", referenceSeedSeconds);
    report.add("current_seconds", referenceCurrentSeconds);
    report.add("speedup",
               referenceSeedSeconds / referenceCurrentSeconds);
    report.endSection();
    report.beginSection("reference_checkpoint");
    report.add("bench", "bench_checkpoint cliff-voltage sweep, "
                        "2 sessions x 8 replicates, 1 worker");
    report.add("checkpoint_off_seconds", referenceCheckpointOffSeconds);
    report.add("checkpoint_on_seconds", referenceCheckpointOnSeconds);
    report.add("speedup", referenceCheckpointOffSeconds /
                              referenceCheckpointOnSeconds);
    report.endSection();
    report.write(out_path);

    if (!identical)
        return 1;
    if (min_speedup > 0.0 && speedup < min_speedup) {
        std::printf("REGRESSION: speedup %.2fx below the %.2fx floor\n",
                    speedup, min_speedup);
        return 1;
    }
    return 0;
}
