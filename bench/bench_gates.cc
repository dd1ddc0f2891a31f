/**
 * @file
 * The engine's A/B gates in one binary. Each gate times two arms of
 * the same campaign against each other through one routine, runGate():
 * every arm runs twice, interleaved (A B A B), and its best time
 * counts. Min-of-N keeps a ratio gate from flapping on scheduler
 * noise, and interleaving lands slow drift (thermal, other tenants) on
 * both sides. Every run must return the replicates of arm A's first
 * run, and best(A) / best(B) is checked against the bound written next
 * to the gate:
 *
 *   fast path   off / on            >= 1.35
 *   checkpoint  straight / forked   >= 1.8
 *   telemetry   metrics on / off    <= 1.02
 *
 * Every arm runs at session scale 0.02 on one thread: the point is the
 * ratio and the identity check, not statistics. The binary takes no
 * arguments and reads no environment. It prints one line per gate and
 * exits 1 if an identity check fails or a bound is missed.
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "core/beam_campaign.hh"
#include "core/parallel_campaign.hh"
#include "core/shard_executor.hh"
#include "core/test_session.hh"
#include "cpu/xgene2_platform.hh"
#include "telemetry/metrics.hh"
#include "telemetry/stopwatch.hh"

namespace {

using namespace xser;

/** Session scale of every arm. */
constexpr double scale = 0.02;

/** One run of an arm: the campaign it ran, replicate by replicate. */
using Arm = std::function<std::vector<core::CampaignResult>()>;

/** Whether a gate's ratio must reach its bound or stay within it. */
enum class Bound { Floor, Ceiling };

/**
 * Run arms `a` and `b` twice each, interleaved, check every run's
 * replicates against a's first run and best(a) / best(b) against
 * `bound`, and print the gate's line. Returns whether the gate passed.
 */
bool
runGate(const char *name, const char *ratio_name, const Arm &a, const Arm &b,
        Bound kind, double bound)
{
    constexpr double never = std::numeric_limits<double>::infinity();
    double best[2] = {never, never};
    std::vector<core::CampaignResult> reference;
    bool identical = true;
    for (int round = 0; round < 2; ++round) {
        for (int arm = 0; arm < 2; ++arm) {
            const telemetry::Stopwatch watch;
            std::vector<core::CampaignResult> replicates =
                arm == 0 ? a() : b();
            best[arm] = std::min(best[arm], watch.seconds());
            if (round == 0 && arm == 0)
                reference = std::move(replicates);
            else
                identical = identical && replicates == reference;
        }
    }
    const double ratio = best[0] / best[1];
    const bool met = kind == Bound::Floor ? ratio >= bound : ratio <= bound;
    const bool passed = identical && met;
    const char *relation = kind == Bound::Floor ? ">=" : "<=";
    const char *results = identical ? "identical" : "DIFFER";
    std::printf("%-10s %-17s %6.3f %s %-4g  best of 2: %6.2f s / %6.2f s  "
                "results %s  %s\n",
                name, ratio_name, ratio, relation, bound, best[0], best[1],
                results, passed ? "pass" : "FAIL");
    std::fflush(stdout);
    return passed;
}

/**
 * An arm that runs `config` on the pool, on one thread. Every run
 * builds a fresh registry, so the telemetry gate's arms differ only in
 * whether the run records into it.
 */
Arm
pooled(const core::CampaignConfig &config, unsigned replicates,
       bool metrics = false)
{
    return [config, replicates, metrics] {
        core::ParallelRunConfig run;
        run.replicates = replicates;
        telemetry::MetricRegistry registry(run.jobs);
        if (metrics)
            run.metrics = &registry;
        core::ParallelCampaignRunner runner(config, run);
        return runner.executeAll().replicates;
    };
}

/**
 * The reference the fork is timed against: every unit's own session
 * run whole by TestSession::execute() on a fresh platform, replaying
 * the golden prefix itself.
 */
Arm
straight(const core::CampaignConfig &config, unsigned replicates)
{
    return [config, replicates] {
        // The pool's default seed, so both arms run the same units.
        const core::ParallelRunConfig run;
        const core::ShardExecutor executor(config, run.seed, 0);
        std::vector<core::CampaignResult> results(replicates);
        for (unsigned r = 0; r < replicates; ++r) {
            for (size_t s = 0; s < config.sessions.size(); ++s) {
                cpu::XGene2Platform platform(config.platform);
                core::TestSession session(&platform,
                                          executor.unitConfig(s, r));
                results[r].sessions.push_back(session.execute());
            }
        }
        return results;
    };
}

/** The paper campaign with the event-driven fast path off, then on. */
bool
fastPathGate()
{
    core::CampaignConfig off = core::BeamCampaign::paperCampaign(scale);
    core::CampaignConfig on = off;
    core::setFastPath(off, false);
    core::setFastPath(on, true);
    return runGate("fast path", "off/on", pooled(off, 1), pooled(on, 1),
                   Bound::Floor, 1.35);
}

/**
 * The cliff-voltage sweep run straight through, then forked from one
 * golden prefix. The workload is deliberately prefix-dominated -- the
 * regime importance splitting exists for: the two sub-guardband
 * sessions of the paper's campaign (Vmin at 2.4 GHz, Vmin-ladder at
 * 900 MHz), stopped after a handful of error events and replicated 8
 * times. Replaying the prefix then costs more than the continuations
 * it feeds (DESIGN.md section 10 derives the expected speedup
 * R(P+C)/(P+R(C+S)) over the R units of the prefix).
 */
bool
checkpointGate()
{
    constexpr unsigned replicates = 8;
    core::CampaignConfig config = core::BeamCampaign::paperCampaign(scale);
    // Drop the nominal and safe sessions, whose long event-rich
    // measured phases would mask the prefix cost this gate isolates.
    config.sessions.erase(config.sessions.begin(),
                          config.sessions.begin() + 2);
    for (auto &session : config.sessions) {
        session.maxErrorEvents = 2;
        session.warmupRounds = 1;
    }
    return runGate("checkpoint", "straight/forked",
                   straight(config, replicates), pooled(config, replicates),
                   Bound::Floor, 1.8);
}

/**
 * The paper campaign with metrics on, then off: the 2% overhead
 * ceiling DESIGN.md section 11 commits to.
 */
bool
telemetryGate()
{
    const core::CampaignConfig config =
        core::BeamCampaign::paperCampaign(scale);
    return runGate("telemetry", "metrics on/off", pooled(config, 2, true),
                   pooled(config, 2), Bound::Ceiling, 1.02);
}

} // namespace

int
main()
{
    // Every gate runs, so one run reports every ratio.
    const bool fast_path = fastPathGate();
    const bool checkpoint = checkpointGate();
    const bool metrics = telemetryGate();
    return fast_path && checkpoint && metrics ? 0 : 1;
}
