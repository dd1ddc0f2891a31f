/**
 * @file
 * Throughput gate for the checkpoint/fork engine: run the same
 * replicated cliff-voltage sweep with checkpointing off (every
 * replicate replays the golden prefix) and on (one prefix snapshot per
 * session, forked per replicate), assert the aggregates are
 * bit-identical, and emit the measurement as BENCH_checkpoint.json for
 * CI artifact upload and regression tracking.
 *
 * The workload is deliberately prefix-dominated -- the regime
 * importance splitting exists for: near-cliff sessions whose measured
 * phase stops after a handful of error events, replicated several
 * times for confidence intervals. Replaying the prefix then costs more
 * than the continuations it feeds (DESIGN.md section 10 derives the
 * expected speedup R(P+C)/(P+RC)).
 *
 * Usage: bench_checkpoint [output.json] [min-speedup]
 *
 * Exit status is nonzero when the aggregates diverge (equivalence
 * broken) or when the measured on/off speedup falls below
 * `min-speedup` (performance regression) -- CI passes a floor under
 * the recorded reference so routine noise passes but a real
 * regression fails the job.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.hh"
#include "core/beam_campaign.hh"

namespace {

using namespace xser;

/** Whole-campaign replicates: the fork fan-out per checkpoint. */
constexpr unsigned replicates = 8;

/**
 * The cliff-voltage sweep: the two sub-Vmin-guardband sessions of the
 * paper's campaign (Vmin at 2.4 GHz, Vmin-ladder at 900 MHz), with
 * stop criteria cut to a handful of events so the session is golden-
 * prefix-dominated.
 */
core::CampaignConfig
cliffSweep(double scale)
{
    core::CampaignConfig config =
        core::BeamCampaign::paperCampaign(scale);
    // Keep sessions 2 and 3 (vminPoint, vmin900Point); drop the
    // nominal/safe sessions whose long event-rich measured phases
    // would mask the prefix cost this bench isolates.
    config.sessions.erase(config.sessions.begin(),
                          config.sessions.begin() + 2);
    for (auto &session : config.sessions) {
        session.maxErrorEvents = 2;
        session.warmupRounds = 1;
    }
    return config;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_checkpoint.json";
    const double min_speedup = argc > 2 ? std::atof(argv[2]) : 0.0;

    bench::banner("Checkpoint/fork throughput gate");
    // Small smoke scale by default: the point is the ratio and the
    // equivalence check, not statistics (XSER_SCALE raises it).
    const double scale = bench::campaignScaleFromEnv(0.02);

    const core::CampaignConfig config = cliffSweep(scale);
    core::ParallelRunConfig run;
    run.jobs = bench::benchJobs();
    run.replicates = replicates;
    run.checkpoint = false;
    const bench::TimedRun off = bench::timedRun(config, run);
    run.checkpoint = true;
    const bench::TimedRun on = bench::timedRun(config, run);

    const bool identical = off.result.replicates == on.result.replicates;
    const double speedup = off.seconds / on.seconds;
    const double units = static_cast<double>(
        config.sessions.size() * replicates);

    std::printf("checkpoint off: %.2f s (%zu sessions x %u replicates, "
                "prefix replayed per unit)\n",
                off.seconds, config.sessions.size(), replicates);
    std::printf("checkpoint on:  %.2f s (one prefix per session, "
                "forked %u ways)\n",
                on.seconds, replicates);
    std::printf("speedup:        %.2fx\n", speedup);
    std::printf("bit-identical aggregates: %s\n",
                identical ? "yes" : "NO -- EQUIVALENCE BROKEN");

    bench::BenchReport report("checkpoint");
    report.add("scale", scale);
    report.add("jobs", static_cast<uint64_t>(bench::benchJobs()));
    report.add("sessions",
               static_cast<uint64_t>(config.sessions.size()));
    report.add("replicates", static_cast<uint64_t>(replicates));
    report.add("checkpoint_off_seconds", off.seconds);
    report.add("checkpoint_on_seconds", on.seconds);
    report.add("speedup_checkpoint_on_over_off", speedup);
    report.add("units_per_second_checkpoint_on", units / on.seconds);
    report.add("units_per_second_checkpoint_off", units / off.seconds);
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
