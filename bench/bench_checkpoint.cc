/**
 * @file
 * Throughput gate for the checkpoint/fork engine: run the same
 * replicated cliff-voltage sweep straight through (every unit runs
 * TestSession::execute() on a fresh platform, replaying the golden
 * prefix itself -- the reference the fork gates compare against) and
 * through the pool (one prefix sealed for the campaign, forked to
 * every unit), both on one thread, assert the per-unit results are
 * bit-identical, and emit the measurement as BENCH_checkpoint.json for
 * CI artifact upload and regression tracking.
 *
 * The workload is deliberately prefix-dominated -- the regime
 * importance splitting exists for: near-cliff sessions whose measured
 * phase stops after a handful of error events, replicated several
 * times for confidence intervals. Replaying the prefix then costs more
 * than the continuations it feeds (DESIGN.md section 10 derives the
 * expected speedup R(P+C)/(P+R(C+S)) over the R units of the prefix).
 *
 * Usage: bench_checkpoint [output.json] [min-speedup]
 *
 * Exit status is nonzero when the results diverge (equivalence
 * broken) or when the measured forked/straight speedup falls below
 * `min-speedup` (performance regression) -- CI passes a floor under
 * the recorded reference so routine noise passes but a real
 * regression fails the job.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.hh"
#include "core/beam_campaign.hh"
#include "core/shard_executor.hh"
#include "cpu/xgene2_platform.hh"

namespace {

using namespace xser;

/** Whole-campaign replicates of the two-session sweep. */
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

    // Small smoke scale by default: the point is the ratio and the
    // equivalence check, not statistics (XSER_SCALE raises it).
    const double scale = bench::campaignScaleFromEnv(0.02);
    bench::banner("Checkpoint/fork throughput gate", scale);

    const core::CampaignConfig config = cliffSweep(scale);
    core::ParallelRunConfig run;
    run.jobs = 1;
    run.replicates = replicates;

    // The straight reference: every unit's own session, run whole.
    bench::TimedRun straight;
    {
        const core::ShardExecutor executor(config, run.seed, 0);
        straight.result.replicates.resize(replicates);
        const telemetry::Stopwatch watch;
        for (unsigned r = 0; r < replicates; ++r) {
            for (size_t s = 0; s < config.sessions.size(); ++s) {
                cpu::XGene2Platform platform(config.platform);
                core::TestSession session(&platform,
                                          executor.unitConfig(s, r));
                straight.result.replicates[r].sessions.push_back(
                    session.execute());
            }
        }
        straight.seconds = watch.seconds();
    }
    const bench::TimedRun forked = bench::timedRun(config, run);

    const bool identical =
        straight.result.replicates == forked.result.replicates;
    const double speedup = straight.seconds / forked.seconds;
    const double units = static_cast<double>(
        config.sessions.size() * replicates);

    std::printf("straight: %.2f s (%zu sessions x %u replicates, "
                "prefix replayed per unit)\n",
                straight.seconds, config.sessions.size(), replicates);
    std::printf("forked:   %.2f s (one prefix, forked to %.0f units)\n",
                forked.seconds, units);
    std::printf("speedup:  %.2fx\n", speedup);
    std::printf("bit-identical results: %s\n",
                identical ? "yes" : "NO -- EQUIVALENCE BROKEN");

    bench::BenchReport report("checkpoint");
    report.add("scale", scale);
    report.add("jobs", static_cast<uint64_t>(run.jobs));
    report.add("sessions",
               static_cast<uint64_t>(config.sessions.size()));
    report.add("replicates", static_cast<uint64_t>(replicates));
    report.add("straight_seconds", straight.seconds);
    report.add("forked_seconds", forked.seconds);
    report.add("speedup_forked_over_straight", speedup);
    report.add("units_per_second_forked", units / forked.seconds);
    report.add("units_per_second_straight", units / straight.seconds);
    report.add("results_identical", identical);
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
