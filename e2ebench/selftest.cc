/**
 * @file
 * `xser-bench selftest`: pins the metric-derivation helpers -- order
 * statistics and verdicts, the report digest, pool accounting and the
 * other readings derived from a run manifest, the result-line format,
 * and rusage collection from real child processes.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/parallel_campaign.hh"
#include "core/run_manifest.hh"
#include "proc.hh"
#include "record.hh"
#include "stats.hh"
#include "telemetry/manifest.hh"
#include "telemetry/metrics.hh"
#include "telemetry/stopwatch.hh"
#include "workloads.hh"

namespace xser::bench {

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

void
orderStatistics()
{
    // Reference values from Python: statistics.quantiles(data, n=4).
    const Quartiles ten = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
    expect(near(ten.q1, 2.75) && near(ten.q2, 5.5) && near(ten.q3, 8.25),
           "quartiles of 1..10 are 2.75, 5.5, 8.25");
    const Quartiles four = quartiles({1, 2, 3, 4});
    expect(near(four.q1, 1.25) && near(four.q2, 2.5) &&
               near(four.q3, 3.75),
           "quartiles of 1..4 are 1.25, 2.5, 3.75");
    const Quartiles two = quartiles({3, 1});
    expect(near(two.q1, 0.5) && near(two.q2, 2.0) && near(two.q3, 3.5),
           "quartiles of {1, 3} extrapolate to 0.5, 2, 3.5");
    const Quartiles one = quartiles({4});
    expect(one.q1 == 4 && one.q2 == 4 && one.q3 == 4,
           "a single value is its own quartiles");
    expect(median({}) == 0.0 && median({5, 1, 3}) == 3.0,
           "median of nothing is 0; of {5, 1, 3} is 3");
    expect(near(relativeSpread({1, 2, 3, 4}), 2.5 / 2.5),
           "relative spread is (q3 - q1) / median");
}

void
verdicts()
{
    const std::vector<double> base = {100, 101, 99, 100, 100};
    expect(compareRuns(base, {95, 96, 95, 94, 95}, true, 0.10) ==
               Verdict::Within,
           "5% slower throughput is within a 10% bound");
    expect(compareRuns(base, {85, 86, 85, 84, 85}, true, 0.10) ==
               Verdict::Worse,
           "15% slower throughput is worse than a 10% bound");
    expect(compareRuns(base, {85, 86, 85, 84, 85}, false, 0.10) ==
               Verdict::Within,
           "15% lower time is within (better than) a 10% bound");
    expect(compareRuns(base, {60, 140, 80, 120, 100}, true, 0.10) ==
               Verdict::Unresolved,
           "a spread wider than the bound is unresolved");
    expect(compareRuns(base, {160, 240, 180, 220, 200}, true, 0.10) ==
               Verdict::Within,
           "a wide spread is still resolved when every run is better");
    expect(near(worsening(100, 90, true), 0.10) &&
               near(worsening(100, 90, false), -0.10),
           "worsening is signed by the metric's direction");
}

void
digestsAndSeeds()
{
    // FNV-1a-64 test vectors.
    expect(reportDigest("") == 0xcbf29ce484222325ULL &&
               reportDigest("a") == 0xaf63dc4c8601ec8cULL &&
               reportDigest("foobar") == 0x85944171f73967e8ULL,
           "report digest is FNV-1a-64");
    expect(hex64(0xabcULL) == "0x0000000000000abc",
           "digests print as 16 hex digits");
    expect(iterationSeed(7, 0) == 7 &&
               iterationSeed(7, 1) != iterationSeed(8, 0) &&
               iterationSeed(7, 1) != iterationSeed(7, 2),
           "iteration 0 keeps the run seed; later ones are distinct");
}

void
poolAndManifest()
{
    const PoolAccounting pool = poolAccounting(30.0, 4, 10.0);
    expect(near(pool.util, 0.75) && near(pool.idleSeconds, 10.0),
           "30 busy seconds on 4 jobs over 10 s: 75% used, 10 s idle");
    expect(poolAccounting(50.0, 4, 10.0).idleSeconds == 0.0 &&
               poolAccounting(1.0, 0, 0.0).util == 0.0,
           "idle time never goes negative; an empty pool reads 0");

    // A manifest with known phases and counters, through the real
    // renderer: two workers, 8 s elapsed, 12 busy seconds.
    telemetry::MetricRegistry registry(2);
    telemetry::MetricShard &a = registry.shard(0);
    telemetry::MetricShard &b = registry.shard(1);
    a.phaseSeconds[static_cast<size_t>(telemetry::Phase::Prefix)] = 1.0;
    a.phaseSeconds[static_cast<size_t>(telemetry::Phase::SnapshotEncode)] =
        0.5;
    a.phaseSeconds[static_cast<size_t>(telemetry::Phase::Continuation)] =
        4.5;
    b.phaseSeconds[static_cast<size_t>(telemetry::Phase::SnapshotRestore)] =
        1.0;
    b.phaseSeconds[static_cast<size_t>(telemetry::Phase::Continuation)] =
        5.0;
    a.counters[static_cast<size_t>(telemetry::Counter::SnoopProbes)] = 80;
    b.counters[static_cast<size_t>(telemetry::Counter::SnoopProbes)] = 20;
    a.counters[static_cast<size_t>(telemetry::Counter::SnoopsFiltered)] =
        25;
    a.counters[static_cast<size_t>(
        telemetry::Counter::CheckpointSealedBytes)] = 3 << 20;
    b.counters[static_cast<size_t>(telemetry::Counter::UnitsCompleted)] = 6;

    core::ManifestRunInfo info;
    info.tool = "xser-bench selftest";
    info.replicates = 3;
    core::SessionAggregate session;
    session.runs = 40;
    session.fluence = 1e9;
    const std::string manifest = core::renderRunManifest(
        info, {session, session}, &registry, 2, 8.0);

    MetricValues layers;
    std::string failure;
    const bool parsed =
        manifestLayers(manifest, {6.0, 12.0}, layers, failure);
    expect(parsed, "a rendered manifest parses" +
                       (failure.empty() ? "" : ": " + failure));
    expect(near(layers["core.pool_util"], 12.0 / 16.0) &&
               near(layers["core.idle_s"], 4.0),
           "pool use is busy / (jobs x elapsed); idle is the rest");
    expect(near(layers["snapshot.restore_frac"], 1.0 / 12.0) &&
               near(layers["core.continuation_frac"], 9.5 / 12.0) &&
               near(layers["core.prefix_s"], 1.0),
           "layer shares have busy worker-seconds as their base");
    expect(near(layers["mem.snoop_filter_ratio"], 0.25) &&
               layers["mem.snoop_probes"] == 100.0,
           "snoop filter ratio has probes as its base");
    expect(near(layers["snapshot.sealed_mb"], 3.0) &&
               layers["core.units"] == 6.0,
           "sealed bytes read in MiB; units from units_completed");
    // 40 + 40 measured runs, plus 3 replicates x (6 + 12) warm-up runs.
    expect(layers["workloads.runs"] == 134.0 &&
               near(layers["workloads.host_ms_per_run"],
                    9.5e3 / 134.0),
           "workload runs count warm-up and measured runs");
    MetricValues ignored;
    expect(!manifestLayers("{\"schema\": 1}", {}, ignored, failure) &&
               !manifestLayers("{", {}, ignored, failure),
           "a manifest without its sections is rejected");
}

void
resultLines()
{
    RunResult result;
    result.workload = "paper_local";
    result.attempted = 4;
    result.metrics["units_per_s"] = 1.25;
    const telemetry::ParsedJson plain =
        telemetry::parseJson(resultLine(result));
    const telemetry::JsonValue *metrics =
        plain.ok ? plain.root.find("metrics") : nullptr;
    expect(plain.ok && plain.root.members.size() == 4 &&
               plain.root.members[0].first == "correct" &&
               plain.root.members[1].first == "attempted" &&
               plain.root.members[2].first == "failed" &&
               metrics != nullptr &&
               metrics->members.size() == endToEndMetrics().size(),
           "an untraced result line has exactly the contract keys and "
           "every end-to-end metric");
    const telemetry::JsonValue *rate =
        metrics != nullptr ? metrics->find("units_per_s") : nullptr;
    expect(rate != nullptr && numberMember(*rate, "value") == 1.25 &&
               rate->find("unit") != nullptr &&
               rate->find("unit")->text == "units/s",
           "each metric is {value, unit}");
    result.traced = true;
    const telemetry::ParsedJson traced =
        telemetry::parseJson(resultLine(result));
    expect(traced.ok &&
               traced.root.find("metrics")->members.size() ==
                   layerMetrics().size(),
           "a traced result line carries every per-layer metric");
    result.failures.push_back("check");
    expect(resultLine(result).rfind("{\"correct\": false", 0) == 0,
           "a failed check makes the result incorrect");
}

void
childUsage(const std::string &dir)
{
    // A child that keeps 64 MiB resident and burns ~0.3 s of CPU.
    const auto body = []() {
        const size_t bytes = size_t(64) << 20;
        std::vector<char> block(bytes);
        std::memset(block.data(), 1, bytes);
        volatile uint64_t sink = 0;
        const telemetry::Stopwatch spin;
        while (spin.seconds() < 0.3)
            sink = sink + block[sink % bytes];
        return 3;
    };
    const Child child =
        spawnFunction(body, dir + "/child.out", dir + "/child.err");
    const ChildUsage usage = awaitChild(
        child, telemetry::monotonicNanos() + static_cast<uint64_t>(60e9));
    expect(usage.exitCode == 3 && !usage.timedOut && !usage.ok(),
           "a child's exit status comes back");
    expect(usage.maxRssMb >= 64.0 && usage.maxRssMb < 1024.0,
           "peak RSS of a 64 MiB child reads 64..1024 MiB (" +
               std::to_string(usage.maxRssMb) + ")");
    expect(usage.cpuSeconds >= 0.2 && usage.wallSeconds >= 0.2 &&
               usage.wallSeconds < 30.0,
           "CPU and wall time of a 0.3 s spin read >= 0.2 s");

    const Child sleeper = spawnFunction(
        []() {
            sleep(30);
            return 0;
        },
        dir + "/sleep.out", dir + "/sleep.err");
    const ChildUsage slept = awaitChild(
        sleeper, telemetry::monotonicNanos() + static_cast<uint64_t>(3e8));
    expect(slept.timedOut && !slept.ok() && slept.wallSeconds < 10.0,
           "a child past its deadline is killed and reaped");

    const Child missing = spawnProgram({dir + "/no-such-binary"},
                                       dir + "/missing.out",
                                       dir + "/missing.err");
    const ChildUsage lost = awaitChild(
        missing, telemetry::monotonicNanos() + static_cast<uint64_t>(10e9));
    expect(lost.exitCode == 127, "a failed exec exits 127");
}

} // namespace

int
selftest()
{
    char dir[] = "xser-bench-selftest-XXXXXX";
    if (mkdtemp(dir) == nullptr) {
        std::printf("FAIL cannot create a scratch directory\n");
        return 1;
    }
    orderStatistics();
    verdicts();
    digestsAndSeeds();
    poolAndManifest();
    resultLines();
    childUsage(dir);
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
                failures);
    return failures == 0 ? 0 : 1;
}

} // namespace xser::bench
