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

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace xser;
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_fastpath.json";
    const double min_speedup = argc > 2 ? std::atof(argv[2]) : 0.0;

    // Small smoke scale by default: the point is the ratio and the
    // equivalence check, not statistics (XSER_SCALE raises it).
    const double scale = bench::campaignScaleFromEnv(0.02);
    bench::banner("Fast-path throughput gate", scale);

    core::CampaignConfig config = core::BeamCampaign::paperCampaign(scale);
    core::ParallelRunConfig run;
    run.jobs = bench::benchJobs();
    core::setFastPath(config, false);
    const bench::TimedRun off = bench::timedRun(config, run);
    core::setFastPath(config, true);
    const bench::TimedRun on = bench::timedRun(config, run);

    const bool identical = off.result.replicates == on.result.replicates;
    const double speedup = off.seconds / on.seconds;
    const double sessions = static_cast<double>(config.sessions.size());

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
