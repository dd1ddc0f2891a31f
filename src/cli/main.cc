/**
 * @file
 * The xser command-line driver: run characterizations, sessions,
 * campaigns, and policy analyses without writing C++.
 *
 *   xser spec
 *   xser characterize [--freq 2.4e9] [--start 980] [--stop 890]
 *                     [--runs 500] [--csv sweep.csv]
 *   xser session --pmd 920 [--soc 920] [--freq 2.4e9] [--events 50]
 *                [--fluence 2e10] [--warmup 8] [--seed 7]
 *                [--trace out.xtrace] [--csv out.csv]
 *   xser campaign [--scale 0.22] [--seed 7] [--jobs 8|auto]
 *                 [--replicates 4] [--trace out.xtrace] [--csv out.csv]
 *   xser tradeoff [--devices 50000] [--checkpoint 30] [--altitude 0]
 *                 [--budget 10]
 */

#include <cstdio>
#include <memory>
#include <string>

#include "cli/args.hh"
#include "inject/avf_estimator.hh"
#include "core/beam_campaign.hh"
#include "core/campaign_report.hh"
#include "core/fit_calculator.hh"
#include "core/parallel_campaign.hh"
#include "core/report_export.hh"
#include "core/run_manifest.hh"
#include "core/table_printer.hh"
#include "core/test_session.hh"
#include "core/tradeoff.hh"
#include "cpu/xgene2_platform.hh"
#include "sim/logging.hh"
#include "telemetry/metrics.hh"
#include "telemetry/progress.hh"
#include "telemetry/stopwatch.hh"
#include "trace/trace_buffer.hh"
#include "trace/trace_writer.hh"
#include "volt/vmin_characterizer.hh"

namespace {

using namespace xser;

void
printUsage()
{
    std::printf(
        "usage: xser <command> [options]\n"
        "\n"
        "commands:\n"
        "  spec          print the simulated platform specification\n"
        "  characterize  sweep the PMD supply and find the safe Vmin\n"
        "                  --freq HZ --start MV --stop MV --runs N\n"
        "                  --seed S --csv FILE\n"
        "  session       one accelerated beam session\n"
        "                  --pmd MV [--soc MV] [--freq HZ]\n"
        "                  --events N --fluence NCM2 --warmup N\n"
        "                  --seed S --csv FILE --fastpath on|off\n"
        "                  --trace FILE --trace-buffer-events N\n"
        "                  --metrics FILE (versioned run manifest)\n"
        "  campaign      the paper's four Table 2 sessions\n"
        "                  --scale F --seed S --csv FILE\n"
        "                  --jobs N|auto --replicates R\n"
        "                  --fastpath on|off (off = reference paths;\n"
        "                  bit-identical results either way)\n"
        "                  --trace FILE --trace-buffer-events N\n"
        "                  --metrics FILE (versioned run manifest;\n"
        "                  inspect with xser-metrics)\n"
        "                  --progress (live stderr progress line;\n"
        "                  TTY only, --quiet wins)\n"
        "                  (results, trace files, and every manifest\n"
        "                  section outside \"timing\" bit-identical for\n"
        "                  any --jobs and with telemetry on or off;\n"
        "                  see README 'Running campaigns')\n"
        "  tradeoff      energy-vs-SDC policy curve for a fleet\n"
        "                  --devices N --checkpoint SEC\n"
        "                  --altitude M --budget SDCS_PER_YEAR\n"
        "  avf           statistical fault injection per cache level\n"
        "                  --workload NAME --trials N --flips K\n"
        "                  --burst SIZE\n"
        "                  --seed S\n"
        "\n"
        "global options:\n"
        "  --quiet       suppress warnings, status output, and the\n"
        "                live progress line (reports still print)\n");
}

int
usage()
{
    printUsage();
    return 2;
}

int
cmdSpec()
{
    cpu::XGene2Platform platform;
    std::printf("%s\n%s", platform.specTable().c_str(),
                core::formatTable3().c_str());
    return 0;
}

int
cmdCharacterize(const cli::Args &args)
{
    cpu::XGene2Platform platform;
    volt::VminCharacterizer characterizer(platform.timing(),
                                          platform.variation());
    volt::VminSweepConfig config;
    config.frequencyHz = args.getDouble("freq", 2.4e9);
    config.startMillivolts = args.getDouble("start", 980.0);
    config.stopMillivolts = args.getDouble("stop", 890.0);
    config.runsPerStep =
        static_cast<unsigned>(args.getUint("runs", 500));
    config.seed = args.getUint("seed", 0xc11ffULL);
    const volt::VminSweepResult result = characterizer.sweep(config);

    core::TablePrinter table({"mV", "pfail", "failures/runs"});
    for (const auto &step : result.steps) {
        table.addRow({core::TablePrinter::fmt(step.millivolts, 0),
                      core::TablePrinter::pct(step.pfail),
                      std::to_string(step.failures) + "/" +
                          std::to_string(step.runs)});
    }
    std::printf("%s\nsafe Vmin: %.0f mV\n", table.toString().c_str(),
                result.safeVminMillivolts);
    if (args.has("csv"))
        core::writeFile(args.get("csv", ""),
                        core::sweepToCsv(result));
    return 0;
}

/**
 * Open the --trace writer, if requested. Opening happens here, before
 * any simulation time is spent, so an unwritable path fails fast.
 */
std::unique_ptr<trace::TraceWriter>
makeTraceWriter(const cli::Args &args)
{
    const std::string path = cli::pathOption(args, "trace");
    if (path.empty())
        return nullptr;
    return std::make_unique<trace::TraceWriter>(path);
}

int
cmdSession(const cli::Args &args)
{
    const telemetry::Stopwatch elapsed;
    core::SessionConfig config = cli::sessionConfig(args);
    const std::string metrics_path = cli::pathOption(args, "metrics");
    const bool fastpath = config.beam.skipAhead;

    std::unique_ptr<trace::TraceWriter> writer = makeTraceWriter(args);
    std::unique_ptr<trace::TraceBuffer> buffer;
    if (writer) {
        buffer = std::make_unique<trace::TraceBuffer>(
            cli::traceBufferEvents(args));
        buffer->info.pmdMillivolts = config.point.pmdMillivolts;
        buffer->info.socMillivolts = config.point.socMillivolts;
        buffer->info.frequencyHz = config.point.frequencyHz;
        buffer->info.workloads = config.workloadNames;
        config.traceSink = buffer.get();
    }

    cpu::PlatformConfig platform_config;
    platform_config.memory.fastPath = fastpath;
    cpu::XGene2Platform platform(platform_config);
    core::TestSession session(&platform, config);
    std::unique_ptr<telemetry::MetricRegistry> registry;
    if (!metrics_path.empty())
        registry = std::make_unique<telemetry::MetricRegistry>(1);
    const core::SessionResult result = [&] {
        const telemetry::ShardScope scope(
            registry != nullptr ? &registry->shard(0) : nullptr);
        return session.execute();
    }();

    if (writer) {
        core::CampaignConfig one;
        one.sessions.push_back(config);
        writer->write(trace::TraceWriter::encodeHeader(
                          config.seed, core::campaignConfigHash(one),
                          platform.memory().traceArrayTable(), 1) +
                      trace::TraceWriter::encodeUnit(*buffer));
        std::printf("trace: %llu events (%llu dropped) -> %s\n",
                    static_cast<unsigned long long>(
                        buffer->events().size()),
                    static_cast<unsigned long long>(buffer->dropped()),
                    writer->path().c_str());
    }

    if (registry != nullptr) {
        core::CampaignConfig one;
        one.sessions.push_back(config);
        core::ManifestRunInfo info;
        info.tool = "xser session";
        info.configHash = core::campaignConfigHash(one);
        info.seed = config.seed;
        info.sessions = 1;
        info.replicates = 1;
        info.fastpath = fastpath;
        core::SessionAggregate aggregate;
        aggregate.point = config.point;
        aggregate.add(result);
        core::writeManifestFile(
            metrics_path,
            core::renderRunManifest(info, {aggregate}, registry.get(),
                                    1, elapsed.seconds()));
    }

    std::printf("%s", core::formatTable2({result}).c_str());
    const core::FitBreakdown fit = core::FitCalculator::breakdown(result);
    std::printf("\nFIT (NYC): SDC %.2f [%.2f, %.2f] | total %.2f "
                "[%.2f, %.2f]\n",
                fit.sdc.fit, fit.sdc.ci.lower, fit.sdc.ci.upper,
                fit.total.fit, fit.total.ci.lower, fit.total.ci.upper);
    if (args.has("csv"))
        core::writeFile(args.get("csv", ""),
                        core::sessionsToCsv({result}));
    return 0;
}

int
cmdCampaign(const cli::Args &args)
{
    const telemetry::Stopwatch elapsed;
    const core::CampaignParams params = cli::campaignParams(args);
    const std::string metrics_path = cli::pathOption(args, "metrics");
    core::ParallelRunConfig run;
    run.jobs = args.getJobs("jobs", 1);
    run.replicates = params.replicates;
    run.seed = params.seed;
    run.traceBufferEvents = params.traceBufferEvents;
    std::unique_ptr<trace::TraceWriter> writer = makeTraceWriter(args);
    const core::CampaignConfig campaign = core::buildCampaign(params);

    std::unique_ptr<telemetry::MetricRegistry> registry;
    if (!metrics_path.empty()) {
        registry =
            std::make_unique<telemetry::MetricRegistry>(run.jobs);
        run.metrics = registry.get();
    }
    // Progress needs a terminal, and --quiet wins (see sim/logging.hh
    // for the precedence contract).
    telemetry::ProgressMeter progress;
    if (args.has("progress") && telemetry::progressSupported() &&
        Logger::global().level() != LogLevel::Quiet)
        run.progress = &progress;

    core::ParallelCampaignRunner runner(campaign, run);
    if (run.progress != nullptr)
        progress.begin("campaign", runner.taskCount());
    const core::ReplicatedCampaignResult sweep =
        runner.executeAll(writer.get());
    progress.finish();

    if (registry != nullptr)
        core::writeManifestFile(
            metrics_path,
            core::renderCampaignManifest(params, sweep, registry.get(),
                                         run.jobs, elapsed.seconds()));
    std::printf("%s", core::renderCampaignReport(
                          params, args.get("trace", ""), sweep)
                          .c_str());
    if (args.has("csv"))
        core::writeFile(
            args.get("csv", ""),
            core::sessionsToCsv(sweep.replicates.front().sessions));
    return 0;
}

int
cmdAvf(const cli::Args &args)
{
    inject::AvfConfig config;
    config.workloadName = args.get("workload", "EP");
    config.trials = static_cast<unsigned>(args.getUint("trials", 40));
    config.flipsPerTrial =
        static_cast<unsigned>(args.getUint("flips", 48));
    config.burstSize =
        static_cast<unsigned>(args.getUint("burst", 1));
    config.seed = args.getUint("seed", 0xa7fULL);
    inject::AvfEstimator estimator(config);
    rad::CrossSectionModel xsection;

    core::TablePrinter table({"level", "corrupted/trials", "AVF",
                              "FIT @980mV", "FIT @920mV"});
    for (auto level : {mem::CacheLevel::Tlb, mem::CacheLevel::L1,
                       mem::CacheLevel::L2, mem::CacheLevel::L3}) {
        const inject::AvfResult result = estimator.estimate(level);
        const double volts_nominal =
            level == mem::CacheLevel::L3 ? 0.950 : 0.980;
        const double volts_low = 0.920;
        table.addRow({mem::cacheLevelName(level),
                      std::to_string(result.corruptedTrials) + "/" +
                          std::to_string(result.trials),
                      core::TablePrinter::sci(result.avf, 2),
                      core::TablePrinter::fmt(
                          estimator.projectFit(result, xsection,
                                               volts_nominal),
                          3),
                      core::TablePrinter::fmt(
                          estimator.projectFit(result, xsection,
                                               volts_low),
                          3)});
    }
    std::printf("%s", table.toString().c_str());
    std::printf("\nper-structure FIT = bits x sigma(V) x flux x AVF "
                "(Design Implication #3).\n"
                "single flips in protected arrays show ~zero AVF "
                "(parity/SECDED absorb them);\nstudy the multi-bit "
                "channel with --burst 3.\n");
    return 0;
}

int
cmdTradeoff(const cli::Args &args)
{
    volt::PowerModel power;
    volt::TimingModel timing;
    core::LogicSusceptibilityModel logic(&timing);
    core::TradeoffConfig config;
    config.devices = args.getDouble("devices", 50000.0);
    config.checkpointSeconds = args.getDouble("checkpoint", 30.0);
    config.environment =
        rad::atAltitude(args.getDouble("altitude", 0.0));
    core::EnergyReliabilityAnalyzer analyzer(&power, &logic, config);

    core::TablePrinter table({"PMD (mV)", "power (W)", "waste",
                              "SDCs/yr", "energy (MWh/yr)"});
    for (const auto &point : analyzer.ladder(920.0)) {
        table.addRow({core::TablePrinter::fmt(
                          point.point.pmdMillivolts, 0),
                      core::TablePrinter::fmt(point.powerWatts, 2),
                      core::TablePrinter::pct(point.wasteFraction, 3),
                      core::TablePrinter::fmt(
                          point.sdcIncidentsPerYear, 1),
                      core::TablePrinter::fmt(point.energyPerYearMwh,
                                              0)});
    }
    std::printf("%s", table.toString().c_str());
    if (args.has("budget")) {
        const core::TradeoffPoint best = analyzer.bestUnderSdcBudget(
            args.getDouble("budget", 10.0));
        std::printf("\nbest under %.1f SDCs/year: %s\n",
                    args.getDouble("budget", 10.0),
                    best.point.label().c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const cli::Args args = cli::Args::parse(argc, argv);
    if (args.has("quiet"))
        Logger::global().setLevel(LogLevel::Quiet);
    const std::string &command = args.command();
    // `--help` parses as an option (no command), `help`/`-h` as a
    // command; all three print the usage text and exit 0.
    if (command == "help" || command == "-h" || args.has("help")) {
        printUsage();
        return 0;
    }
    cli::requireKnownOptions(args, "xser");
    if (command == "spec")
        return cmdSpec();
    if (command == "characterize")
        return cmdCharacterize(args);
    if (command == "session")
        return cmdSession(args);
    if (command == "campaign")
        return cmdCampaign(args);
    if (command == "tradeoff")
        return cmdTradeoff(args);
    if (command == "avf")
        return cmdAvf(args);
    return usage();
}
