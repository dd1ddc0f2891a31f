/**
 * @file
 * Tests for the CLI argument parser and the CSV exporters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "cli/args.hh"
#include "core/parallel_campaign.hh"
#include "core/report_export.hh"
#include "trace/trace_buffer.hh"
#include "volt/operating_point.hh"

namespace xser {
namespace {

cli::Args
parse(std::initializer_list<const char *> tokens)
{
    std::vector<const char *> argv = {"xser"};
    argv.insert(argv.end(), tokens.begin(), tokens.end());
    return cli::Args::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, CommandAndOptions)
{
    const cli::Args args =
        parse({"session", "--pmd", "920", "--csv", "out.csv"});
    EXPECT_EQ(args.command(), "session");
    EXPECT_TRUE(args.has("pmd"));
    EXPECT_TRUE(args.has("csv"));
    EXPECT_FALSE(args.has("freq"));
    EXPECT_EQ(args.get("csv", ""), "out.csv");
    EXPECT_DOUBLE_EQ(args.getDouble("pmd", 0.0), 920.0);
    EXPECT_EQ(args.keys().size(), 2u);
}

TEST(Args, DefaultsWhenAbsent)
{
    const cli::Args args = parse({"campaign"});
    EXPECT_DOUBLE_EQ(args.getDouble("scale", 0.22), 0.22);
    EXPECT_EQ(args.getUint("seed", 7), 7u);
    EXPECT_EQ(args.get("csv", "fallback"), "fallback");
}

TEST(Args, BareFlagBeforeAnotherOption)
{
    const cli::Args args = parse({"session", "--verbose", "--pmd",
                                  "930"});
    EXPECT_TRUE(args.has("verbose"));
    EXPECT_EQ(args.get("verbose", "x"), "");
    EXPECT_DOUBLE_EQ(args.getDouble("pmd", 0.0), 930.0);
}

TEST(Args, ScientificAndHexNumbers)
{
    const cli::Args args =
        parse({"session", "--fluence", "1.5e10", "--seed", "0xff"});
    EXPECT_DOUBLE_EQ(args.getDouble("fluence", 0.0), 1.5e10);
    EXPECT_EQ(args.getUint("seed", 0), 255u);
}

TEST(ArgsDeath, RejectsGarbageNumbers)
{
    const cli::Args args = parse({"session", "--pmd", "abc"});
    EXPECT_EXIT(args.getDouble("pmd", 0.0),
                ::testing::ExitedWithCode(1), "expects a number");
    const cli::Args args2 = parse({"session", "--seed", "12x"});
    EXPECT_EXIT(args2.getUint("seed", 0),
                ::testing::ExitedWithCode(1), "expects an integer");
}

TEST(ArgsDeath, NonFiniteNumbersAreRefusedByName)
{
    // NaN passes every `x <= 0` range check downstream, so the parser
    // must stop it, for every option, naming the option.
    for (const char *value : {"nan", "inf", "-inf", "1e400"}) {
        SCOPED_TRACE(value);
        EXPECT_EXIT(parse({"session", "--freq", value})
                        .getDouble("freq", 2.4e9),
                    ::testing::ExitedWithCode(1),
                    "option --freq expects a finite number");
    }
    for (const char *option : {"--pmd", "--soc", "--freq"}) {
        SCOPED_TRACE(option);
        EXPECT_EXIT(cli::sessionConfig(parse({"session", "--pmd", "920",
                                              option, "nan"})),
                    ::testing::ExitedWithCode(1),
                    std::string("option ") + option +
                        " expects a finite number");
    }
}

TEST(ArgsDeath, RejectsExtraPositional)
{
    EXPECT_EXIT(parse({"session", "bogus"}),
                ::testing::ExitedWithCode(1), "unexpected positional");
}

TEST(Args, CampaignParamsDefaultsAndHash)
{
    const core::CampaignParams params = cli::campaignParams(
        parse({"campaign", "--scale", "0.05", "--replicates", "3",
               "--trace", "t.xtrace"}));
    EXPECT_DOUBLE_EQ(params.scale, 0.05);
    EXPECT_EQ(params.seed, 0x5e5510ULL);
    EXPECT_EQ(params.replicates, 3u);
    EXPECT_EQ(params.traceBufferEvents,
              trace::TraceBuffer::defaultMaxEvents);
    EXPECT_TRUE(params.wantTrace);
    EXPECT_FALSE(params.wantMetrics);
    EXPECT_EQ(params.configHash,
              core::campaignConfigHash(
                  core::BeamCampaign::paperCampaign(0.05, 0x5e5510ULL)));
}

TEST(ArgsDeath, CampaignRejectsReplicatesBeyondTheBound)
{
    // 2^32 + 1 must be refused, not narrowed to a single replicate.
    EXPECT_EXIT(cli::campaignParams(
                    parse({"campaign", "--replicates", "4294967297"})),
                ::testing::ExitedWithCode(1),
                "option --replicates expects a count");
    EXPECT_EXIT(
        cli::campaignParams(parse({"campaign", "--replicates", "0"})),
        ::testing::ExitedWithCode(1), "option --replicates expects a count");
}

TEST(ArgsDeath, CampaignRejectsDegenerateScale)
{
    for (const char *scale : {"0", "nan", "-1", "inf", "1e18"}) {
        SCOPED_TRACE(scale);
        EXPECT_EXIT(
            cli::campaignParams(parse({"campaign", "--scale", scale})),
            ::testing::ExitedWithCode(1), "option --scale expects");
    }
}

TEST(Args, KeysInCommandLineOrder)
{
    const cli::Args args = parse({"session", "--seed", "1", "--pmd",
                                  "920", "--seed", "2"});
    EXPECT_EQ(args.keys(), (std::vector<std::string>{"seed", "pmd"}));
    EXPECT_EQ(args.getUint("seed", 0), 2u);
}

/** Parse a command line of `tool` (its argv[0] is irrelevant). */
void
checkOptions(const char *tool, std::initializer_list<const char *> tokens)
{
    cli::requireKnownOptions(parse(tokens), tool);
}

TEST(Args, EveryDocumentedInvocationPassesTheOptionCheck)
{
    // The shapes e2ebench, tests/check_distributed.sh, CI and the docs
    // run; each must still get past the check.
    checkOptions("xser", {"spec"});
    checkOptions("xser", {"campaign", "--scale", "0.005", "--replicates",
                          "2", "--jobs", "4", "--seed", "7", "--quiet",
                          "--metrics", "m.json", "--trace", "t.xtrace",
                          "--progress", "--csv", "c.csv",
                          "--trace-buffer-events", "100"});
    checkOptions("xser", {"session", "--pmd", "920", "--events", "2",
                          "--fluence", "2e9", "--warmup", "1", "--trace",
                          "s.xtrace", "--metrics", "s.json"});
    checkOptions("xser", {"characterize", "--freq", "2.4e9", "--start",
                          "980", "--stop", "890", "--runs", "50"});
    checkOptions("xser", {"tradeoff", "--devices", "10", "--checkpoint",
                          "30", "--altitude", "0", "--budget", "10"});
    checkOptions("xser", {"avf", "--workload", "MG", "--trials", "5",
                          "--flips", "3", "--burst", "3", "--seed", "7"});
    checkOptions("xser-server", {"--port", "0", "--port-file", "p.txt",
                                 "--max-campaigns", "2"});
    checkOptions("xser-worker", {"--port", "5000", "--crash-on-shard",
                                 "2"});
    checkOptions("xser-client", {"run", "--port", "5000", "--scale",
                                 "0.005", "--replicates", "2", "--seed",
                                 "7", "--trace", "t.xtrace", "--metrics",
                                 "m.json"});
    checkOptions("xser-client", {"run", "--port", "5000", "--detach"});
    checkOptions("xser-client", {"attach", "--port", "5000", "--id", "3"});
    checkOptions("xser-client", {"shutdown", "--port", "5000"});
    checkOptions("xser-trace", {"summarize", "--in", "s.xtrace"});
    checkOptions("xser-trace", {"filter", "--in", "s.xtrace", "--type",
                                "Injection", "--limit", "5"});
    checkOptions("xser-trace", {"hist", "--in", "s.xtrace", "--metric",
                                "burst"});
    checkOptions("xser-trace", {"to-csv", "--in", "s.xtrace"});
    checkOptions("xser-trace", {"diff", "--a", "a.xtrace", "--b",
                                "b.xtrace"});
    checkOptions("xser-metrics", {"diff", "--a", "a.json", "--b",
                                  "b.json"});
    checkOptions("xser-metrics", {"summarize", "--in", "m.json"});
    checkOptions("xser-metrics", {"to-csv", "--in", "m.json"});
}

TEST(Args, VetCommandLineAnswersHelpAndUnknownCommands)
{
    // Help and usage errors exit before any work; a known command runs.
    testing::internal::CaptureStdout();
    EXPECT_EQ(cli::vetCommandLine(parse({"--help"}), "xser"), 0);
    EXPECT_EQ(cli::vetCommandLine(parse({"help"}), "xser-trace"), 0);
    EXPECT_EQ(cli::vetCommandLine(parse({"bogus"}), "xser"), 2);
    EXPECT_EQ(cli::vetCommandLine(parse({}), "xser-metrics"), 2);
    EXPECT_EQ(cli::vetCommandLine(parse({"run"}), "xser-server"), 2);
    const std::string help = testing::internal::GetCapturedStdout();
    EXPECT_NE(help.find("xser spec: "), std::string::npos);
    EXPECT_NE(help.find("  --in FILE "), std::string::npos);
    EXPECT_EQ(cli::vetCommandLine(parse({"spec"}), "xser"), -1);
    EXPECT_EQ(cli::vetCommandLine(parse({"--port", "0"}), "xser-server"),
              -1);
}

TEST(ArgsDeath, UnknownOptionsAreRefusedByName)
{
    EXPECT_EXIT(checkOptions("xser", {"spec", "--bogus-flag", "3"}),
                ::testing::ExitedWithCode(1),
                "unknown option --bogus-flag for xser spec");
    // A typo must not silently run the default fluence.
    EXPECT_EXIT(checkOptions("xser", {"session", "--pmd", "920",
                                      "--fluense", "2e9"}),
                ::testing::ExitedWithCode(1),
                "unknown option --fluense for xser session");
    EXPECT_EXIT(checkOptions("xser-worker", {"--prot", "1"}),
                ::testing::ExitedWithCode(1),
                "unknown option --prot for xser-worker");
    // An option of another command is foreign here, and the first
    // offender in command-line order is the one named.
    EXPECT_EXIT(checkOptions("xser-client", {"shutdown", "--port", "1",
                                             "--scale", "1", "--jobs",
                                             "2"}),
                ::testing::ExitedWithCode(1),
                "unknown option --scale for xser-client shutdown");
    // The analysis tools: a typo must not widen a filter to every
    // event or turn a timing-aware diff into a timing-blind one.
    EXPECT_EXIT(checkOptions("xser-trace", {"filter", "--in", "s.xtrace",
                                            "--sesion", "5"}),
                ::testing::ExitedWithCode(1),
                "unknown option --sesion for xser-trace filter");
    EXPECT_EXIT(checkOptions("xser-metrics", {"diff", "--a", "a.json",
                                              "--b", "b.json", "--al"}),
                ::testing::ExitedWithCode(1),
                "unknown option --al for xser-metrics diff");
}

TEST(ArgsDeath, DeletedOptionsAreRefusedByName)
{
    // The reference paths are a library setting for tests, not a
    // second way to run a campaign; shards are one unit each; and the
    // service peers share their liveness timings as constants.
    EXPECT_EXIT(checkOptions("xser", {"campaign", "--fastpath", "off"}),
                ::testing::ExitedWithCode(1),
                "unknown option --fastpath for xser campaign");
    EXPECT_EXIT(checkOptions("xser", {"session", "--pmd", "920",
                                      "--fastpath", "on"}),
                ::testing::ExitedWithCode(1),
                "unknown option --fastpath for xser session");
    EXPECT_EXIT(checkOptions("xser-client", {"run", "--port", "1",
                                             "--fastpath", "off"}),
                ::testing::ExitedWithCode(1),
                "unknown option --fastpath for xser-client run");
    EXPECT_EXIT(checkOptions("xser-server", {"--shard-replicates", "2"}),
                ::testing::ExitedWithCode(1),
                "unknown option --shard-replicates for xser-server");
    EXPECT_EXIT(checkOptions("xser-server", {"--idle-timeout", "5"}),
                ::testing::ExitedWithCode(1),
                "unknown option --idle-timeout for xser-server");
    EXPECT_EXIT(checkOptions("xser-worker", {"--port", "1", "--heartbeat",
                                             "1"}),
                ::testing::ExitedWithCode(1),
                "unknown option --heartbeat for xser-worker");
}

TEST(ArgsDeath, CampaignRefusesTheCheckpointOption)
{
    // Every campaign unit forks from the sealed prefix; there is no
    // second way to run one to select. Only `xser tradeoff` keeps a
    // --checkpoint option: its fleet checkpoint interval.
    checkOptions("xser", {"tradeoff", "--checkpoint", "30"});
    EXPECT_EXIT(checkOptions("xser", {"campaign", "--checkpoint", "off"}),
                ::testing::ExitedWithCode(1),
                "unknown option --checkpoint for xser campaign");
    EXPECT_EXIT(checkOptions("xser-client", {"run", "--port", "5000",
                                             "--checkpoint", "on"}),
                ::testing::ExitedWithCode(1),
                "unknown option --checkpoint for xser-client run");
}

TEST(ArgsDeath, SessionRefusesAnEmptyStopTarget)
{
    const core::SessionConfig config = cli::sessionConfig(
        parse({"session", "--pmd", "920", "--events", "2", "--fluence",
               "2e9"}));
    EXPECT_EQ(config.maxErrorEvents, 2u);
    EXPECT_DOUBLE_EQ(config.maxFluence, 2e9);
    // A zero target ends the session before it measures anything.
    EXPECT_EXIT(cli::sessionConfig(
                    parse({"session", "--pmd", "920", "--events", "0"})),
                ::testing::ExitedWithCode(1),
                "option --events expects a count");
    for (const char *fluence : {"0", "-1"}) {
        SCOPED_TRACE(fluence);
        EXPECT_EXIT(cli::sessionConfig(parse(
                        {"session", "--pmd", "920", "--fluence", fluence})),
                    ::testing::ExitedWithCode(1),
                    "option --fluence expects a positive, finite number");
    }
    // Args::getDouble refuses the non-finite ones before the range check.
    for (const char *fluence : {"nan", "inf"}) {
        SCOPED_TRACE(fluence);
        EXPECT_EXIT(cli::sessionConfig(parse(
                        {"session", "--pmd", "920", "--fluence", fluence})),
                    ::testing::ExitedWithCode(1),
                    "option --fluence expects a finite number");
    }
}

TEST(ArgsDeath, SessionRefusesAWarmupBeyondUnsigned)
{
    // 2^32 must be refused, not truncated to zero warm-up rounds.
    EXPECT_EQ(cli::sessionConfig(parse({"session", "--pmd", "920",
                                        "--warmup", "4294967295"}))
                  .warmupRounds,
              4294967295u);
    EXPECT_EXIT(cli::sessionConfig(parse({"session", "--pmd", "920",
                                          "--warmup", "4294967296"})),
                ::testing::ExitedWithCode(1),
                "option --warmup expects a count");
}

/* ------------------------------ CSV ------------------------------ */

core::SessionResult
sampleSession()
{
    core::SessionResult session;
    session.point = volt::vminPoint();
    session.beamFluxPerSecond = 1.5e6;
    session.fluence = 4.08e10;
    session.runs = 100;
    session.events.sdcSilent = 123;
    session.events.sdcNotified = 7;
    session.events.appCrash = 3;
    session.events.sysCrash = 8;
    session.upsetsDetected = 506;
    session.totalSramBits = 80000000;
    session.avgPowerWatts = 18.15;
    core::WorkloadSessionStats stats;
    stats.name = "CG";
    stats.runs = 20;
    stats.fluence = 8e9;
    stats.upsetsDetected = 101;
    session.perWorkload.push_back(stats);
    return session;
}

/** Count lines and verify the column count is uniform. */
void
checkCsvShape(const std::string &csv, size_t expected_rows)
{
    std::istringstream stream(csv);
    std::string line;
    size_t rows = 0;
    size_t columns = 0;
    while (std::getline(stream, line)) {
        const size_t commas =
            static_cast<size_t>(std::count(line.begin(), line.end(),
                                           ','));
        if (rows == 0)
            columns = commas;
        else
            EXPECT_EQ(commas, columns) << line;
        ++rows;
    }
    EXPECT_EQ(rows, expected_rows + 1);  // + header
}

TEST(Csv, SessionsExport)
{
    const std::string csv = core::sessionsToCsv({sampleSession()});
    checkCsvShape(csv, 1);
    EXPECT_NE(csv.find("pmd_mv"), std::string::npos);
    EXPECT_NE(csv.find("920"), std::string::npos);
    EXPECT_NE(csv.find("506"), std::string::npos);
}

TEST(Csv, WorkloadSlicesExport)
{
    const std::string csv =
        core::workloadSlicesToCsv({sampleSession(), sampleSession()});
    checkCsvShape(csv, 2);
    EXPECT_NE(csv.find("CG"), std::string::npos);
}

TEST(Csv, EdacLevelsExport)
{
    const std::string csv = core::edacLevelsToCsv({sampleSession()});
    checkCsvShape(csv, 4);  // one row per cache level
    EXPECT_NE(csv.find("L3 Cache"), std::string::npos);
}

TEST(Csv, SweepExport)
{
    volt::VminSweepResult sweep;
    sweep.steps.push_back(volt::VminStep{920.0, 100, 0, 0.0});
    sweep.steps.push_back(volt::VminStep{915.0, 100, 7, 0.07});
    const std::string csv = core::sweepToCsv(sweep);
    checkCsvShape(csv, 2);
    EXPECT_NE(csv.find("915"), std::string::npos);
}

TEST(Csv, WriteFileRoundTrip)
{
    const std::string path = ::testing::TempDir() + "/xser_csv_test.csv";
    core::writeFile(path, "a,b\n1,2\n");
    std::FILE *file = std::fopen(path.c_str(), "r");
    ASSERT_NE(file, nullptr);
    char buffer[32] = {};
    const size_t read = std::fread(buffer, 1, sizeof(buffer) - 1, file);
    std::fclose(file);
    EXPECT_EQ(std::string(buffer, read), "a,b\n1,2\n");
}

} // namespace
} // namespace xser
