/**
 * @file
 * The four benchmark workloads and the measuring loop.
 */

#include "workloads.hh"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>

#include "core/beam_campaign.hh"
#include "core/campaign_report.hh"
#include "core/parallel_campaign.hh"
#include "core/run_manifest.hh"
#include "core/table_printer.hh"
#include "cpu/xgene2_platform.hh"
#include "inject/avf_estimator.hh"
#include "proc.hh"
#include "sim/logging.hh"
#include "stats.hh"
#include "telemetry/json.hh"
#include "telemetry/manifest.hh"
#include "telemetry/metrics.hh"
#include "telemetry/stopwatch.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_writer.hh"

namespace xser::bench {

namespace {

/** Local worker threads: one per core of the 4-core reference host. */
constexpr unsigned localJobs = 4;

/** Service workers: one core stays free for server, client, and bench. */
constexpr unsigned serviceWorkers = 3;

/** Longest any single backend process may run before it is killed. */
constexpr double backendTimeoutSeconds = 120.0;

/** Size of one iteration of each workload. */
struct Sizes {
    double campaignScale;        ///< paper_local, paper_distributed
    unsigned campaignReplicates;
    double cliffScale;
    unsigned cliffReplicates;
    unsigned avfTrials;          ///< per cache level
    unsigned setupCycles;        ///< set-ups timed per run
};

constexpr Sizes fullSizes{0.005, 2, 0.02, 16, 15, 15};
constexpr Sizes smokeSizes{0.001, 1, 0.005, 2, 2, 3};

constexpr double mib = 1024.0 * 1024.0;

/** Whole file as bytes ("" when unreadable). */
std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::string
lastLine(const std::string &text)
{
    const size_t end = text.find_last_not_of("\r\n");
    if (end == std::string::npos)
        return "";
    const size_t newline = text.rfind('\n', end);
    const size_t start = newline == std::string::npos ? 0 : newline + 1;
    return text.substr(start, end + 1 - start);
}

/** Shared state of one workload's run. */
class Context
{
  public:
    Context(const BenchOptions &run_options, const Sizes &run_sizes)
        : options(run_options), sizes(run_sizes),
          deadlineNanos_(telemetry::monotonicNanos() +
                         static_cast<uint64_t>(
                             (run_options.seconds + backendTimeoutSeconds) *
                             1e9))
    {
    }

    const BenchOptions &options;
    const Sizes &sizes;

    std::string
    bin(const char *name) const
    {
        return options.binDir + "/" + name;
    }

    /** An empty scratch directory for one backend invocation. */
    std::string
    freshDir(const std::string &tag) const
    {
        const std::filesystem::path dir =
            std::filesystem::path(options.workDir) / tag;
        std::error_code ignored;
        std::filesystem::remove_all(dir, ignored);
        std::filesystem::create_directories(dir, ignored);
        return dir.string();
    }

    /** Wait deadline for a backend started now. */
    uint64_t
    deadline() const
    {
        return std::min(deadlineNanos_,
                        telemetry::monotonicNanos() +
                            static_cast<uint64_t>(backendTimeoutSeconds *
                                                  1e9));
    }

    bool
    expired() const
    {
        return telemetry::monotonicNanos() >= deadlineNanos_;
    }

  private:
    uint64_t deadlineNanos_;
};

/** Measurements of one backend invocation (or one set-up). */
struct Sample {
    bool ok = false;
    std::string failure;
    double units = 0.0;
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;
    double maxRssMb = 0.0;
    /** Output bytes: compared across paths and digested for seed 7. */
    std::string report;
    /** Per-layer readings (traced invocations only). */
    MetricValues layers;

    double rate() const { return share(units, wallSeconds); }
};

/** Fill `sample` from a reaped child; false (with a reason) on failure. */
bool
takeUsage(Sample &sample, const ChildUsage &usage, const std::string &what,
          const std::string &log_path)
{
    sample.wallSeconds = usage.wallSeconds;
    sample.cpuSeconds += usage.cpuSeconds;
    sample.maxRssMb = std::max(sample.maxRssMb, usage.maxRssMb);
    if (usage.ok())
        return true;
    sample.ok = false;
    sample.failure =
        what + (usage.timedOut ? " timed out"
                               : " exited with status " +
                                     std::to_string(usage.exitCode));
    const std::string tail = lastLine(readFile(log_path));
    if (!tail.empty())
        sample.failure += " (" + tail + ")";
    return false;
}

Sample
failed(const std::string &why)
{
    Sample sample;
    sample.failure = why;
    return sample;
}

/** Warm-up workload runs per unit of each session of `config`. */
std::vector<double>
warmupRunsPerUnit(const core::CampaignConfig &config)
{
    std::vector<double> runs;
    for (const core::SessionConfig &session : config.sessions)
        runs.push_back(static_cast<double>(session.warmupRounds) *
                       static_cast<double>(session.workloadNames.size()));
    return runs;
}

/** Structure every paper-campaign report has. */
bool
campaignReportLooksRight(const std::string &report, unsigned replicates)
{
    if (report.rfind("Table 2: Neutron Beam Time Sessions", 0) != 0)
        return false;
    return replicates < 2 ||
           report.find("=== replicate summary (" +
                       std::to_string(replicates) + " replicates) ===") !=
               std::string::npos;
}

/** `xser campaign` for the paper's four sessions, in one process. */
Sample
runLocalCampaign(const Context &ctx, uint64_t seed, bool traced,
                 const std::string &dir)
{
    Sample sample;
    const unsigned replicates = ctx.sizes.campaignReplicates;
    std::vector<std::string> argv = {
        ctx.bin("xser"), "campaign", "--scale",
        number(ctx.sizes.campaignScale), "--replicates",
        std::to_string(replicates), "--jobs", std::to_string(localJobs),
        "--seed", std::to_string(seed), "--quiet"};
    if (traced) {
        argv.push_back("--metrics");
        argv.push_back("metrics.json");
    }
    const Child child = spawnProgram(argv, dir + "/report.txt",
                                     dir + "/stderr.txt", dir);
    if (!takeUsage(sample, awaitChild(child, ctx.deadline()),
                   "xser campaign", dir + "/stderr.txt"))
        return sample;
    sample.units = 4.0 * replicates;
    sample.report = readFile(dir + "/report.txt");
    if (!campaignReportLooksRight(sample.report, replicates))
        return failed("xser campaign printed a malformed report");
    sample.ok = true;
    return sample;
}

/**
 * Seed-7 digest of the paper campaign's report at full size: the local
 * pool and the service must both print exactly these bytes.
 */
constexpr uint64_t paperCampaignDigest = 0xb0d2951d7e264d3eULL;

/**
 * One workload: how to set its backend up, run one iteration, and
 * cross-check an iteration against another code path.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Time one set-up of the backend (Sample::wallSeconds). */
    virtual Sample setUp(const Context &ctx) = 0;

    /** One iteration with `seed`; `traced` turns telemetry on. */
    virtual Sample run(const Context &ctx, uint64_t seed, bool traced) = 0;

    /**
     * Check an untraced iteration against another path; nullopt when
     * the workload has none, "" when it holds, else the failure.
     */
    virtual std::optional<std::string>
    crossCheck(const Context &, uint64_t, const Sample &)
    {
        return std::nullopt;
    }

    /** Digest of the iteration-0 report at seed 7 (full sizes). */
    virtual uint64_t pinnedDigest() const = 0;

    /** Processes that keep a core busy while an iteration runs. */
    virtual unsigned busyProcesses() const { return localJobs; }
};

/**
 * Set-up of the single-process workloads: `xser spec`, i.e. process
 * start plus one platform construction.
 */
Sample
specSetUp(const Context &ctx)
{
    Sample sample;
    const std::string out = ctx.options.workDir + "/spec.txt";
    const Child child = spawnProgram({ctx.bin("xser"), "spec"}, out,
                                     ctx.options.workDir + "/spec.err");
    if (!takeUsage(sample, awaitChild(child, ctx.deadline()), "xser spec",
                   ctx.options.workDir + "/spec.err"))
        return sample;
    if (readFile(out).empty())
        return failed("xser spec printed nothing");
    sample.ok = true;
    return sample;
}

class PaperLocal : public Workload
{
  public:
    Sample setUp(const Context &ctx) override { return specSetUp(ctx); }

    Sample
    run(const Context &ctx, uint64_t seed, bool traced) override
    {
        const std::string dir = ctx.freshDir("paper_local");
        Sample sample = runLocalCampaign(ctx, seed, traced, dir);
        std::string failure;
        if (sample.ok && traced &&
            !manifestLayers(readFile(dir + "/metrics.json"),
                            warmupRunsPerUnit(
                                core::BeamCampaign::paperCampaign(
                                    ctx.sizes.campaignScale, seed)),
                            sample.layers, failure))
            return failed(failure);
        return sample;
    }

    uint64_t pinnedDigest() const override { return paperCampaignDigest; }
};

/**
 * bench_checkpoint's cliff sweep: the two sub-guardband sessions (920
 * mV @ 2.4 GHz, 790 mV @ 900 MHz) cut to two error events after one
 * warm-up round, so the golden prefix dominates each unit.
 */
core::CampaignConfig
cliffSweep(double scale, uint64_t seed)
{
    core::CampaignConfig config =
        core::BeamCampaign::paperCampaign(scale, seed);
    config.sessions.erase(config.sessions.begin(),
                          config.sessions.begin() + 2);
    for (auto &session : config.sessions) {
        session.maxErrorEvents = 2;
        session.warmupRounds = 1;
    }
    return config;
}

class CliffFork : public Workload
{
  public:
    Sample setUp(const Context &ctx) override { return specSetUp(ctx); }

    Sample
    run(const Context &ctx, uint64_t seed, bool traced) override
    {
        const std::string dir = ctx.freshDir("cliff_fork");
        const core::CampaignConfig config =
            cliffSweep(ctx.sizes.cliffScale, seed);
        const unsigned replicates = ctx.sizes.cliffReplicates;
        const auto body = [&]() {
            Logger::global().setLevel(LogLevel::Quiet);
            telemetry::MetricRegistry registry(localJobs);
            core::ParallelRunConfig run;
            run.jobs = localJobs;
            run.replicates = replicates;
            run.seed = seed;
            run.metrics = traced ? &registry : nullptr;
            trace::TraceWriter writer(dir + "/cliff.xtrace");
            core::ParallelCampaignRunner runner(config, run);
            const telemetry::Stopwatch elapsed;
            const core::ReplicatedCampaignResult sweep =
                runner.executeAll(&writer);
            const double seconds = elapsed.seconds();
            std::printf("%s", core::formatReplicateSummary(sweep).c_str());
            if (traced) {
                core::ManifestRunInfo info;
                info.tool = "xser-bench cliff_fork";
                info.configHash = core::campaignConfigHash(config);
                info.seed = seed;
                info.scale = ctx.sizes.cliffScale;
                info.sessions =
                    static_cast<unsigned>(config.sessions.size());
                info.replicates = replicates;
                core::writeManifestFile(
                    dir + "/metrics.json",
                    core::renderRunManifest(info, sweep.sessions,
                                            &registry, localJobs,
                                            seconds));
            }
            return 0;
        };
        Sample sample;
        const Child child =
            spawnFunction(body, dir + "/summary.txt", dir + "/stderr.txt");
        if (!takeUsage(sample, awaitChild(child, ctx.deadline()),
                       "cliff_fork child", dir + "/stderr.txt"))
            return sample;

        const std::string summary = readFile(dir + "/summary.txt");
        const std::string trace_bytes = readFile(dir + "/cliff.xtrace");
        const double units =
            static_cast<double>(config.sessions.size() * replicates);
        if (summary.rfind("=== replicate summary (", 0) != 0)
            return failed("cliff_fork printed a malformed summary");
        const trace::TraceFile trace = trace::decodeTrace(trace_bytes);
        if (!trace.ok)
            return failed("cliff_fork wrote a bad .xtrace: " + trace.error);
        if (static_cast<double>(trace.units.size()) != units ||
            trace.seed != seed)
            return failed("cliff_fork .xtrace has the wrong units or seed");

        sample.units = units;
        sample.report = summary + trace_bytes;
        std::string failure;
        if (traced) {
            if (!manifestLayers(readFile(dir + "/metrics.json"),
                                warmupRunsPerUnit(config), sample.layers,
                                failure))
                return failed(failure);
            sample.layers["trace.file_mb"] =
                static_cast<double>(trace_bytes.size()) / mib;
        }
        sample.ok = true;
        return sample;
    }

    uint64_t pinnedDigest() const override { return 0xb1b7cf8d13f16722ULL; }
};

/** A running xser-server with its workers. */
struct Service {
    Child server;
    std::vector<Child> workers;
    std::string port;

    void
    stop() const
    {
        killChild(server);
        for (const Child &worker : workers)
            killChild(worker);
    }
};

/**
 * Start xser-server and the workers. Set-up ends when the server's
 * port file is written and every worker is spawned (workers connect on
 * their own; the campaign queue waits for them).
 */
Sample
startService(const Context &ctx, const std::string &dir, Service &service)
{
    const std::string port_file = dir + "/port.txt";
    service.server = spawnProgram(
        {ctx.bin("xser-server"), "--port", "0", "--port-file", port_file,
         "--max-campaigns", "1"},
        dir + "/server.out", dir + "/server.log");
    const uint64_t give_up =
        service.server.startNanos + static_cast<uint64_t>(10e9);
    for (;;) {
        const std::string contents = readFile(port_file);
        if (!contents.empty() && contents.back() == '\n') {
            service.port = contents.substr(0, contents.size() - 1);
            break;
        }
        int status = 0;
        if (service.server.pid <= 0 ||
            waitpid(service.server.pid, &status, WNOHANG) != 0 ||
            telemetry::monotonicNanos() > give_up) {
            service.stop();
            return failed("xser-server never wrote its port (" +
                          lastLine(readFile(dir + "/server.log")) + ")");
        }
        usleep(200);
    }
    for (unsigned i = 0; i < serviceWorkers; ++i) {
        const std::string name = dir + "/worker" + std::to_string(i);
        service.workers.push_back(
            spawnProgram({ctx.bin("xser-worker"), "--port", service.port},
                         name + ".out", name + ".log"));
    }
    Sample sample;
    sample.ok = true;
    sample.wallSeconds = static_cast<double>(telemetry::monotonicNanos() -
                                             service.server.startNanos) *
                         1e-9;
    return sample;
}

class PaperDistributed : public Workload
{
  public:
    Sample
    setUp(const Context &ctx) override
    {
        const std::string dir = ctx.freshDir("paper_distributed_setup");
        Service service;
        Sample sample = startService(ctx, dir, service);
        service.stop();
        return sample;
    }

    Sample
    run(const Context &ctx, uint64_t seed, bool traced) override
    {
        const std::string dir = ctx.freshDir("paper_distributed");
        Service service;
        const Sample setup = startService(ctx, dir, service);
        if (!setup.ok)
            return setup;
        const unsigned replicates = ctx.sizes.campaignReplicates;
        std::vector<std::string> argv = {
            ctx.bin("xser-client"), "run", "--port", service.port,
            "--scale", number(ctx.sizes.campaignScale),
            "--replicates", std::to_string(replicates), "--seed",
            std::to_string(seed)};
        if (traced) {
            argv.push_back("--metrics");
            argv.push_back("metrics.json");
        }
        const Child client = spawnProgram(argv, dir + "/report.txt",
                                          dir + "/client.log", dir);

        Sample sample;
        if (!takeUsage(sample, awaitChild(client, ctx.deadline()),
                       "xser-client", dir + "/client.log")) {
            service.stop();
            return sample;
        }
        sample.maxRssMb = 0.0; // peak RSS covers the backend only
        const ChildUsage server =
            awaitChild(service.server, ctx.deadline());
        std::vector<double> worker_cpu;
        bool ok = takeUsage(sample, server, "xser-server",
                            dir + "/server.log");
        for (unsigned i = 0; i < serviceWorkers; ++i) {
            const ChildUsage worker =
                awaitChild(service.workers[i], ctx.deadline());
            worker_cpu.push_back(worker.cpuSeconds);
            ok = takeUsage(sample, worker, "xser-worker",
                           dir + "/worker" + std::to_string(i) + ".log") &&
                 ok;
        }
        if (!ok)
            return sample;
        sample.wallSeconds =
            static_cast<double>(telemetry::monotonicNanos() -
                                service.server.startNanos) *
            1e-9;
        sample.units = 4.0 * replicates;
        sample.report = readFile(dir + "/report.txt");
        if (!campaignReportLooksRight(sample.report, replicates))
            return failed("xser-client printed a malformed report");

        if (traced) {
            std::string failure;
            if (!manifestLayers(readFile(dir + "/metrics.json"),
                                warmupRunsPerUnit(
                                    core::BeamCampaign::paperCampaign(
                                        ctx.sizes.campaignScale, seed)),
                                sample.layers, failure))
                return failed(failure);
            double worker_sum = 0.0;
            for (double cpu : worker_cpu)
                worker_sum += cpu;
            const auto [lo, hi] =
                std::minmax_element(worker_cpu.begin(), worker_cpu.end());
            sample.layers["service.server_cpu_s"] = server.cpuSeconds;
            sample.layers["service.server_cpu_frac"] =
                share(server.cpuSeconds, server.cpuSeconds + worker_sum);
            sample.layers["service.worker_cpu_s.sum"] = worker_sum;
            sample.layers["service.worker_cpu_s.max"] = *hi;
            sample.layers["service.worker_cpu_s.min"] = *lo;
            sample.layers["service.worker_util"] =
                share(worker_sum, serviceWorkers * sample.wallSeconds);
        }
        sample.ok = true;
        return sample;
    }

    /** The service's report must equal the local pool's, byte for byte. */
    std::optional<std::string>
    crossCheck(const Context &ctx, uint64_t seed,
               const Sample &distributed) override
    {
        const Sample local = runLocalCampaign(
            ctx, seed, false, ctx.freshDir("paper_distributed_local"));
        if (!local.ok)
            return "local reference: " + local.failure;
        if (local.report != distributed.report)
            return std::string(
                "distributed report differs from xser campaign's");
        return std::string();
    }

    uint64_t pinnedDigest() const override { return paperCampaignDigest; }

    unsigned busyProcesses() const override { return serviceWorkers; }
};

constexpr mem::CacheLevel avfLevels[] = {
    mem::CacheLevel::Tlb, mem::CacheLevel::L1, mem::CacheLevel::L2,
    mem::CacheLevel::L3};

/** Metric-name suffix of a cache level. */
const char *
levelKey(mem::CacheLevel level)
{
    switch (level) {
    case mem::CacheLevel::Tlb:
        return "tlb";
    case mem::CacheLevel::L1:
        return "l1";
    case mem::CacheLevel::L2:
        return "l2";
    case mem::CacheLevel::L3:
        return "l3";
    }
    return "?";
}

/** The table `xser avf` prints, rebuilt from in-process results. */
std::string
avfTable(const inject::AvfEstimator &estimator,
         const std::vector<inject::AvfResult> &results)
{
    const rad::CrossSectionModel xsection;
    core::TablePrinter table({"level", "corrupted/trials", "AVF",
                              "FIT @980mV", "FIT @920mV"});
    for (const inject::AvfResult &result : results) {
        const double volts_nominal =
            result.level == mem::CacheLevel::L3 ? 0.950 : 0.980;
        table.addRow(
            {mem::cacheLevelName(result.level),
             std::to_string(result.corruptedTrials) + "/" +
                 std::to_string(result.trials),
             core::TablePrinter::sci(result.avf, 2),
             core::TablePrinter::fmt(
                 estimator.projectFit(result, xsection, volts_nominal), 3),
             core::TablePrinter::fmt(
                 estimator.projectFit(result, xsection, 0.920), 3)});
    }
    return table.toString();
}

class AvfInject : public Workload
{
  public:
    Sample setUp(const Context &ctx) override { return specSetUp(ctx); }

    Sample
    run(const Context &ctx, uint64_t seed, bool traced) override
    {
        const std::string dir = ctx.freshDir("avf_inject");
        return traced ? runInProcess(ctx, seed, dir)
                      : runCli(ctx, seed, dir);
    }

    uint64_t pinnedDigest() const override { return 0x09b41fb7a3c836a4ULL; }

    unsigned busyProcesses() const override { return 1; }

  private:
    static inject::AvfConfig
    config(const Context &ctx, uint64_t seed)
    {
        inject::AvfConfig config;
        config.workloadName = "MG";
        config.trials = ctx.sizes.avfTrials;
        config.flipsPerTrial = 48;
        config.burstSize = 3;
        config.seed = seed;
        return config;
    }

    /** `xser avf`; the report is its table (up to the first blank line). */
    static Sample
    runCli(const Context &ctx, uint64_t seed, const std::string &dir)
    {
        const inject::AvfConfig avf = config(ctx, seed);
        Sample sample;
        const Child child = spawnProgram(
            {ctx.bin("xser"), "avf", "--workload", avf.workloadName,
             "--trials", std::to_string(avf.trials), "--flips",
             std::to_string(avf.flipsPerTrial), "--burst",
             std::to_string(avf.burstSize), "--seed", std::to_string(seed)},
            dir + "/report.txt", dir + "/stderr.txt");
        if (!takeUsage(sample, awaitChild(child, ctx.deadline()),
                       "xser avf", dir + "/stderr.txt"))
            return sample;
        const std::string stdout_text = readFile(dir + "/report.txt");
        const size_t blank = stdout_text.find("\n\n");
        if (stdout_text.rfind("level", 0) != 0 ||
            blank == std::string::npos ||
            stdout_text.find("L3 Cache") > blank)
            return failed("xser avf printed a malformed table");
        sample.report = stdout_text.substr(0, blank + 1);
        sample.units = 4.0 * avf.trials;
        sample.ok = true;
        return sample;
    }

    /**
     * The same estimation in a bench child, with telemetry on and a
     * span around each AvfEstimator::estimate call.
     */
    static Sample
    runInProcess(const Context &ctx, uint64_t seed, const std::string &dir)
    {
        const inject::AvfConfig avf = config(ctx, seed);
        const auto body = [&]() {
            Logger::global().setLevel(LogLevel::Quiet);
            telemetry::MetricRegistry registry(1);
            const telemetry::ShardScope scope(&registry.shard(0));
            const telemetry::Stopwatch elapsed;
            inject::AvfEstimator estimator(avf);
            std::vector<inject::AvfResult> results;
            std::FILE *spans = std::fopen((dir + "/spans.txt").c_str(), "w");
            if (spans == nullptr)
                return 1;
            for (const mem::CacheLevel level : avfLevels) {
                const telemetry::Stopwatch span;
                results.push_back(estimator.estimate(level));
                std::fprintf(spans, "%s %.9f %u\n", levelKey(level),
                             span.seconds(), results.back().corruptedTrials);
            }
            if (std::fclose(spans) != 0)
                return 1;
            std::printf("%s", avfTable(estimator, results).c_str());
            core::ManifestRunInfo info;
            info.tool = "xser-bench avf_inject";
            info.seed = seed;
            core::writeManifestFile(
                dir + "/metrics.json",
                core::renderRunManifest(info, {}, &registry, 1,
                                        elapsed.seconds()));
            return 0;
        };
        Sample sample;
        const Child child =
            spawnFunction(body, dir + "/report.txt", dir + "/stderr.txt");
        if (!takeUsage(sample, awaitChild(child, ctx.deadline()),
                       "avf_inject child", dir + "/stderr.txt"))
            return sample;
        sample.report = readFile(dir + "/report.txt");
        sample.units = 4.0 * avf.trials;

        std::string failure;
        if (!manifestLayers(readFile(dir + "/metrics.json"), {},
                            sample.layers, failure))
            return failed(failure);
        std::FILE *spans = std::fopen((dir + "/spans.txt").c_str(), "r");
        if (spans == nullptr)
            return failed("avf_inject child wrote no spans");
        double total_seconds = 0.0;
        double rebuilds = 1.0; // the estimator's first platform
        std::vector<std::pair<std::string, double>> per_level;
        char key[8];
        double seconds = 0.0;
        unsigned corrupted = 0;
        while (std::fscanf(spans, "%7s %lf %u", key, &seconds,
                           &corrupted) == 3) {
            per_level.emplace_back(key, seconds);
            total_seconds += seconds;
            rebuilds += corrupted; // each corrupted trial rebuilds
        }
        std::fclose(spans);
        if (per_level.size() != std::size(avfLevels))
            return failed("avf_inject child wrote incomplete spans");
        for (const auto &[level, level_seconds] : per_level) {
            sample.layers["inject.estimate_s." + level] = level_seconds;
            sample.layers["inject.estimate_frac." + level] =
                share(level_seconds, total_seconds);
        }
        sample.layers["inject.rebuilds"] = rebuilds;
        // One workload run per trial plus a golden run per rebuild.
        const double runs = sample.units + rebuilds;
        sample.layers["workloads.runs"] = runs;
        sample.layers["workloads.host_ms_per_run"] =
            share(total_seconds * 1e3, runs);
        sample.ok = true;
        return sample;
    }
};

/**
 * cpu.platform_ctor_ms: the median of ten timed XGene2Platform
 * constructions, in a child so the platforms never inflate the bench.
 */
Sample
platformCtorProbe(const Context &ctx)
{
    const std::string dir = ctx.freshDir("platform_ctor");
    const auto body = []() {
        std::vector<double> ms;
        for (int i = 0; i < 10; ++i) {
            const telemetry::Stopwatch watch;
            auto platform = std::make_unique<cpu::XGene2Platform>();
            ms.push_back(watch.seconds() * 1e3);
        }
        std::printf("%.9f\n", median(ms));
        return 0;
    };
    Sample sample;
    const Child child =
        spawnFunction(body, dir + "/ms.txt", dir + "/stderr.txt");
    if (!takeUsage(sample, awaitChild(child, ctx.deadline()),
                   "platform probe", dir + "/stderr.txt"))
        return sample;
    const double ms = std::atof(readFile(dir + "/ms.txt").c_str());
    if (!(ms > 0.0))
        return failed("platform probe printed no time");
    sample.layers["cpu.platform_ctor_ms"] = ms;
    sample.ok = true;
    return sample;
}

/**
 * Seconds one calibration pass takes on the reference host (4-vCPU
 * Xeon, gcc 12, RelWithDebInfo) with `copies` kernels running at once,
 * typical over quiet and busy periods. Time metrics are scaled by (pass
 * seconds now / this), so they read as if measured on that host.
 */
double
referencePassSeconds(unsigned copies)
{
    return copies <= 1 ? 0.045 : copies == 3 ? 0.06 : 0.07;
}

/**
 * The calibration kernel: random read-modify-writes over 32 MiB (far
 * past any last-level cache) with integer arithmetic, a fixed amount
 * of work whose speed follows the memory-bandwidth and core contention
 * of a shared host. It lives here, not in src/, so no change to the
 * program can move it. Prints the median of three timed passes, so a
 * momentary stall does not read as a slow host.
 */
int
calibrationKernel()
{
    std::vector<uint64_t> table(uint64_t(1) << 22);
    for (size_t i = 0; i < table.size(); ++i)
        table[i] = i;
    std::vector<double> passes;
    uint64_t x = 1;
    for (int pass = 0; pass < 3; ++pass) {
        const telemetry::Stopwatch watch;
        for (uint64_t i = 0; i < 7'000'000; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            table[x >> 42] += x;
        }
        passes.push_back(watch.seconds());
    }
    std::printf("%.9f %llu\n", median(passes),
                static_cast<unsigned long long>(table[x >> 42]));
    return 0;
}

/**
 * Host slowness right now: the median over `copies` concurrent
 * calibration kernels of their pass seconds, over the reference (2 =
 * half speed); 0 when a kernel failed. The median keeps one disturbed
 * core from reading as a slow host.
 */
double
hostSlowness(const Context &ctx, unsigned copies)
{
    const std::string dir = ctx.freshDir("calibration");
    std::vector<Child> children;
    for (unsigned i = 0; i < copies; ++i) {
        const std::string name = dir + "/kernel" + std::to_string(i);
        children.push_back(
            spawnFunction(calibrationKernel, name + ".out", name + ".err"));
    }
    std::vector<double> seconds;
    bool ok = true;
    for (unsigned i = 0; i < copies; ++i) {
        const std::string name = dir + "/kernel" + std::to_string(i);
        ok = awaitChild(children[i], ctx.deadline()).ok() && ok;
        seconds.push_back(std::atof(readFile(name + ".out").c_str()));
    }
    const double typical = median(seconds);
    return ok && typical > 0.0 ? typical / referencePassSeconds(copies)
                               : 0.0;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "paper_local")
        return std::make_unique<PaperLocal>();
    if (name == "cliff_fork")
        return std::make_unique<CliffFork>();
    if (name == "paper_distributed")
        return std::make_unique<PaperDistributed>();
    if (name == "avf_inject")
        return std::make_unique<AvfInject>();
    return nullptr;
}

void
printMetric(const std::string &workload, const MetricSpec &spec,
            double value)
{
    std::printf("%-18s %-28s %14s %s\n", workload.c_str(), spec.name,
                number(value).c_str(), spec.unit);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_local", "cliff_fork", "paper_distributed", "avf_inject"};
    return names;
}

bool
manifestLayers(const std::string &text,
               const std::vector<double> &warmup_runs,
               MetricValues &layers, std::string &failure)
{
    const telemetry::ParsedJson parsed = telemetry::parseJson(text);
    const telemetry::JsonValue *counters =
        parsed.ok ? parsed.root.find("counters") : nullptr;
    const telemetry::JsonValue *timing =
        parsed.ok ? parsed.root.find("timing") : nullptr;
    const telemetry::JsonValue *headline =
        parsed.ok ? parsed.root.find("headline") : nullptr;
    const telemetry::JsonValue *run =
        parsed.ok ? parsed.root.find("run") : nullptr;
    const telemetry::JsonValue *phases =
        timing != nullptr ? timing->find("phase_seconds") : nullptr;
    if (counters == nullptr || phases == nullptr || headline == nullptr ||
        run == nullptr) {
        failure = "unreadable run manifest" +
                  (parsed.ok ? std::string() : ": " + parsed.error);
        return false;
    }
    const auto counter = [&](const char *name) {
        return numberMember(*counters, name);
    };
    const auto phase = [&](const char *name) {
        return numberMember(*phases, name);
    };
    const double prefix = phase("prefix_run");
    const double encode = phase("snapshot_encode");
    const double restore = phase("snapshot_restore");
    const double continuation = phase("continuation");
    const double trace_write = phase("trace_write");
    const double busy = prefix + encode + restore + continuation +
                        trace_write + phase("merge");
    // No phase time at all means no worker pool ran (avf_inject).
    const PoolAccounting pool =
        busy > 0.0 ? poolAccounting(busy, numberMember(*timing, "jobs"),
                                    numberMember(*timing, "elapsed_seconds"))
                   : PoolAccounting{};

    const double replicates = numberMember(*run, "replicates");
    double runs = 0.0;
    for (size_t s = 0; s < headline->elements.size(); ++s) {
        runs += numberMember(headline->elements[s], "runs");
        if (s < warmup_runs.size())
            runs += replicates * warmup_runs[s];
    }

    layers["snapshot.encode_s"] = encode;
    layers["snapshot.restore_s"] = restore;
    layers["snapshot.encode_frac"] = share(encode, busy);
    layers["snapshot.restore_frac"] = share(restore, busy);
    layers["snapshot.sealed_mb"] = counter("checkpoint_sealed_bytes") / mib;
    layers["snapshot.opened_mb"] = counter("checkpoint_opened_bytes") / mib;
    layers["core.prefix_s"] = prefix;
    layers["core.continuation_s"] = continuation;
    layers["core.prefix_frac"] = share(prefix, busy);
    layers["core.continuation_frac"] = share(continuation, busy);
    layers["core.units"] = counter("units_completed");
    layers["core.pool_util"] = pool.util;
    layers["core.idle_s"] = pool.idleSeconds;
    layers["workloads.runs"] = runs;
    layers["workloads.host_ms_per_run"] = share(continuation * 1e3, runs);
    layers["mem.snoop_probes"] = counter("snoop_probes");
    layers["mem.snoop_filter_ratio"] =
        share(counter("snoops_filtered"), counter("snoop_probes"));
    layers["mem.scrub_lines"] = counter("scrub_lines");
    layers["mem.edac_ce"] = counter("edac_corrected");
    layers["mem.edac_ue"] = counter("edac_uncorrected");
    layers["rad.beam_arrivals"] = counter("beam_arrivals");
    layers["rad.beam_settles"] = counter("beam_settles");
    layers["rad.quanta_skipped"] = counter("beam_quanta_skipped");
    layers["trace.events"] = counter("trace_events_merged");
    layers["trace.write_s"] = trace_write;
    layers["trace.write_frac"] = share(trace_write, busy);
    return true;
}

RunResult
runWorkload(const std::string &name, const BenchOptions &options)
{
    RunResult result;
    result.workload = name;
    result.seed = options.seed;
    result.traced = options.traced;
    const std::unique_ptr<Workload> workload = makeWorkload(name);
    if (workload == nullptr) {
        result.failures.push_back("unknown workload " + name);
        return result;
    }
    const Context ctx(options, options.smoke ? smokeSizes : fullSizes);
    const auto attempt = [&](const Sample &sample,
                             const std::string &what) {
        ++result.attempted;
        if (!sample.ok) {
            ++result.failed;
            result.failures.push_back(what + ": " + sample.failure);
        }
        return sample.ok;
    };
    const auto failCheck = [&](const std::string &what) {
        ++result.failed;
        result.failures.push_back(what);
    };
    // Host slowness is sampled before and after the set-ups and after
    // every iteration. The time metrics are scaled by the median sample,
    // which cancels most of a shared host's drift (up to 2x over
    // minutes) while one disturbed sample cannot move them.
    std::vector<double> slowness;
    const auto sampleSlowness = [&]() {
        const double sample =
            hostSlowness(ctx, workload->busyProcesses());
        ++result.attempted;
        if (sample > 0.0)
            slowness.push_back(sample);
        else
            failCheck("calibration kernel failed");
    };
    sampleSlowness();

    std::vector<double> setups;
    for (unsigned i = 0; i < ctx.sizes.setupCycles && !ctx.expired(); ++i) {
        const Sample setup = workload->setUp(ctx);
        if (attempt(setup, "set-up"))
            setups.push_back(setup.wallSeconds);
    }
    sampleSlowness();

    std::map<std::string, std::vector<double>> layer_samples;
    if (options.traced) {
        const Sample probe = platformCtorProbe(ctx);
        if (attempt(probe, "platform probe"))
            layer_samples["cpu.platform_ctor_ms"].push_back(
                probe.layers.at("cpu.platform_ctor_ms"));
    }

    std::vector<double> rates, rss, traced_rates;
    Sample first; // iteration 0, for the cross-path check
    const telemetry::Stopwatch window;
    double last_iteration = 0.0;
    for (unsigned k = 0;
         k == 0 || (window.seconds() + 0.5 * last_iteration <
                        options.seconds &&
                    !ctx.expired());
         ++k) {
        const uint64_t seed = iterationSeed(options.seed, k);
        const std::string tag = name + " iteration " + std::to_string(k) +
                                " (seed " + std::to_string(seed) + ")";
        const telemetry::Stopwatch iteration;
        Sample plain;
        Sample traced;
        // Alternate which twin runs first, so drift hits both alike.
        if (options.traced && k % 2 == 1)
            traced = workload->run(ctx, seed, true);
        plain = workload->run(ctx, seed, false);
        if (options.traced && k % 2 == 0)
            traced = workload->run(ctx, seed, true);
        last_iteration = iteration.seconds();
        sampleSlowness();

        if (attempt(plain, tag)) {
            rates.push_back(plain.rate());
            rss.push_back(plain.maxRssMb);
            std::printf("  %s: %g units in %.3f s = %.4f units/s, "
                        "peak RSS %.1f MB, CPU %.2f s\n",
                        tag.c_str(), plain.units, plain.wallSeconds,
                        plain.rate(), plain.maxRssMb, plain.cpuSeconds);
        }
        if (options.traced && attempt(traced, tag + " traced")) {
            traced_rates.push_back(traced.rate());
            traced.layers["proc.cpu_s"] = traced.cpuSeconds;
            for (const auto &[layer, value] : traced.layers)
                layer_samples[layer].push_back(value);
            std::printf("  %s traced: %.3f s = %.4f units/s\n",
                        tag.c_str(), traced.wallSeconds, traced.rate());
            if (plain.ok && traced.report != plain.report)
                failCheck(tag + ": traced output differs from untraced");
        }
        if (k != 0 || !plain.ok)
            continue;
        const uint64_t digest = reportDigest(plain.report);
        const bool pinned = !options.smoke && options.seed == 7;
        std::printf("  %s report digest %s%s\n", name.c_str(),
                    hex64(digest).c_str(),
                    pinned ? (digest == workload->pinnedDigest()
                                  ? " (matches the seed-7 pin)"
                                  : " (DIFFERS from the seed-7 pin)")
                           : "");
        if (pinned && digest != workload->pinnedDigest())
            failCheck(tag + ": report digest " + hex64(digest) +
                      " differs from the pinned " +
                      hex64(workload->pinnedDigest()));
        first = plain;
    }
    // The cross-path check runs once, after the measuring window.
    if (first.ok) {
        const std::optional<std::string> cross =
            workload->crossCheck(ctx, options.seed, first);
        if (cross) {
            ++result.attempted;
            if (!cross->empty())
                failCheck(name + " iteration 0: " + *cross);
        }
    }

    const double host_slowness = median(slowness);
    result.metrics["units_per_s"] = median(rates) * host_slowness;
    result.metrics["setup_s"] = share(median(setups), host_slowness);
    result.metrics["peak_rss_mb"] = median(rss);
    result.metrics["raw.units_per_s"] = median(rates);
    result.metrics["raw.setup_s"] = median(setups);
    result.metrics["host.slowness"] = host_slowness;
    if (options.traced) {
        for (const auto *list : {&layerMetrics(), &layerDetailMetrics()})
            for (const MetricSpec &spec : *list)
                result.metrics[spec.name] = 0.0;
        for (const auto &[layer, values] : layer_samples)
            result.metrics[layer] = median(values);
        result.metrics["bench.trace_overhead"] =
            1.0 - share(median(traced_rates), median(rates));
    }

    for (const MetricSpec &spec : endToEndMetrics())
        printMetric(name, spec, result.metrics[spec.name]);
    std::printf("%-18s %llu of %llu attempts failed; raw units/s %s, "
                "raw set-up %s s, host slowness %s (median of %zu "
                "calibrations:",
                name.c_str(), static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.attempted),
                number(result.metrics["raw.units_per_s"]).c_str(),
                number(result.metrics["raw.setup_s"]).c_str(),
                number(result.metrics["host.slowness"]).c_str(),
                slowness.size());
    for (const double sample : slowness)
        std::printf(" %.4f", sample);
    std::printf(")\n");
    if (options.traced) {
        for (const auto *list : {&layerMetrics(), &layerDetailMetrics()})
            for (const MetricSpec &spec : *list)
                printMetric(name, spec, result.metrics[spec.name]);
    }
    for (const std::string &failure : result.failures)
        std::printf("FAILED: %s\n", failure.c_str());
    return result;
}

} // namespace xser::bench
