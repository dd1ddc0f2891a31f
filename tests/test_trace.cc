/**
 * @file
 * Trace subsystem tests: the shared codec's varints and double bit
 * patterns (as the trace format uses them), sink counters, bounded
 * buffers, binary round trips (including sentinel coordinates and
 * corrupt-file rejection), byte-identity of campaign traces across
 * worker counts, the EDAC cross-check, and pinned per-type counts for
 * the headline campaign.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/beam_campaign.hh"
#include "core/parallel_campaign.hh"
#include "core/test_session.hh"
#include "cpu/xgene2_platform.hh"
#include "sim/bytes.hh"
#include "trace/trace_buffer.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_writer.hh"

namespace xser {
namespace {

using trace::EventType;
using trace::TraceBuffer;
using trace::TraceEvent;

TEST(Varint, RoundTripsBoundaryValues)
{
    const uint64_t values[] = {0,   1,    127,        128,
                               300, 1u << 20, UINT64_MAX - 1, UINT64_MAX};
    for (const uint64_t value : values) {
        ByteWriter writer;
        writer.varint(value);
        ByteReader reader(writer.data());
        EXPECT_EQ(reader.varint(), value);
        EXPECT_TRUE(reader.atEnd());
    }
}

TEST(Varint, RejectsTruncationAndOverlongEncodings)
{
    ByteWriter writer;
    writer.varint(UINT64_MAX);
    const std::string bytes = writer.take();
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
        ByteReader reader(std::string_view(bytes).substr(0, cut));
        reader.varint();
        EXPECT_FALSE(reader.ok());
    }
    // Eleven continuation bytes can encode nothing a uint64_t holds.
    const std::string overlong(11, '\x80');
    ByteReader reader(overlong);
    reader.varint();
    EXPECT_FALSE(reader.ok());
}

TEST(Varint, DoubleBitsRoundTripIsBitExact)
{
    const double values[] = {0.0, -0.0, 920.0, 2.4e9, 1e-300, -1.5};
    for (const double value : values) {
        ByteWriter writer;
        writer.f64(value);
        ASSERT_EQ(writer.size(), 8u);
        ByteReader reader(writer.data());
        const double decoded = reader.f64();
        ASSERT_TRUE(reader.atEnd());
        EXPECT_EQ(std::bit_cast<uint64_t>(decoded),
                  std::bit_cast<uint64_t>(value));
    }
}

TEST(LineCoordDecode, RecoversSetWayOffset)
{
    // 8 words/line, 4 ways: word 77 = line 9 (set 2, way 1), offset 5.
    const trace::TraceArrayInfo info{"l1d.0.data", 1, 8, 4, 4096};
    const trace::LineCoord coord = trace::lineCoord(info, 77);
    ASSERT_TRUE(coord.valid);
    EXPECT_EQ(coord.set, 2u);
    EXPECT_EQ(coord.way, 1u);
    EXPECT_EQ(coord.offset, 5u);

    const trace::TraceArrayInfo flat{"tlb.0", 0, 0, 0, 1064};
    EXPECT_FALSE(trace::lineCoord(flat, 7).valid);
}

TEST(TraceSinkCounters, PerTypePerLevelAndDetections)
{
    TraceBuffer sink;
    sink.registerArray(0, 1); // an L1 array
    sink.registerArray(1, 3); // the L3 array
    sink.record({EventType::ParityDetect, 10, 0, 5, trace::noBit, 0});
    sink.record({EventType::EccCorrect, 20, 1, 6, 17, 0});
    sink.record({EventType::EccMiscorrect, 30, 1, 7, 2, 0});
    sink.record({EventType::UeDetect, 40, 1, 8, trace::noBit, 0});
    sink.record({EventType::Injection, 50, 1, 9, 3, 2});
    sink.record({EventType::OutcomeClassified, 60, trace::noArray, 0, 0,
                 0});

    EXPECT_EQ(sink.count(EventType::ParityDetect), 1u);
    EXPECT_EQ(sink.count(EventType::ParityDetect, 1), 1u);
    EXPECT_EQ(sink.count(EventType::ParityDetect, 3), 0u);
    EXPECT_EQ(sink.count(EventType::Injection, 3), 1u);
    EXPECT_EQ(sink.detectionCount(1), 1u);
    EXPECT_EQ(sink.detectionCount(3), 3u);
    EXPECT_EQ(sink.detectionCount(0), 0u);

    sink.clear();
    EXPECT_EQ(sink.count(EventType::ParityDetect), 0u);
    EXPECT_EQ(sink.detectionCount(3), 0u);
    EXPECT_TRUE(sink.events().empty());
}

TEST(TraceBufferBounds, DropsBeyondCapacityButCountsExactly)
{
    TraceBuffer buffer(4);
    for (uint64_t i = 0; i < 10; ++i)
        buffer.record({EventType::Injection, Tick(i), 0, i, 0, 1});
    EXPECT_EQ(buffer.events().size(), 4u);
    EXPECT_EQ(buffer.dropped(), 6u);
    // The base-class counter is exact regardless of drops.
    EXPECT_EQ(buffer.count(EventType::Injection), 10u);

    buffer.clear();
    EXPECT_EQ(buffer.events().size(), 0u);
    EXPECT_EQ(buffer.dropped(), 0u);
}

/** A small two-unit trace exercising every field and sentinel. */
std::string
writeFixtureTrace(const std::string &path)
{
    std::vector<trace::TraceArrayInfo> arrays;
    arrays.push_back({"l1d.0.data", 1, 8, 4, 4096});
    arrays.push_back({"tlb.0", 0, 0, 0, 1064});

    TraceBuffer unit0;
    unit0.info.session = 0;
    unit0.info.replicate = 0;
    unit0.info.pmdMillivolts = 920.0;
    unit0.info.socMillivolts = 950.0;
    unit0.info.frequencyHz = 2.4e9;
    unit0.info.workloads = {"EP", "CG"};
    unit0.record({EventType::Injection, 100, 0, 7, 63, 3});
    unit0.record({EventType::ParityDetect, 250, 0, 7, trace::noBit, 0});
    unit0.record({EventType::Propagate, 250, 1, trace::noWord,
                  trace::noBit, 1});
    unit0.record({EventType::OutcomeClassified, 900, trace::noArray, 1,
                  2, 5});

    TraceBuffer unit1(1); // capacity 1: second record drops
    unit1.info.session = 1;
    unit1.info.replicate = 4;
    unit1.info.pmdMillivolts = 980.0;
    unit1.info.socMillivolts = 950.0;
    unit1.info.frequencyHz = 9e8;
    unit1.record({EventType::EccCorrect, 5, 1, 1063, 71, 0});
    unit1.record({EventType::EccCorrect, 6, 1, 1063, 71, 0});

    trace::TraceWriter writer(path);
    writer.write(
        trace::TraceWriter::encodeHeader(0xabcdULL, 0x1234ULL, arrays, 2) +
        trace::TraceWriter::encodeUnit(unit0) +
        trace::TraceWriter::encodeUnit(unit1));

    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

TEST(TraceRoundTrip, PreservesEveryFieldIncludingSentinels)
{
    const std::string path = testing::TempDir() + "roundtrip.xtrace";
    writeFixtureTrace(path);
    const trace::TraceFile file = trace::readTraceFile(path);
    ASSERT_TRUE(file.ok) << file.error;

    EXPECT_EQ(file.version, trace::traceFormatVersion);
    EXPECT_EQ(file.seed, 0xabcdULL);
    EXPECT_EQ(file.configHash, 0x1234ULL);
    ASSERT_EQ(file.arrays.size(), 2u);
    EXPECT_EQ(file.arrays[0].name, "l1d.0.data");
    EXPECT_EQ(file.arrays[0].wordsPerLine, 8u);
    EXPECT_EQ(file.arrays[1].level, 0u);
    EXPECT_EQ(file.arrays[1].words, 1064u);

    ASSERT_EQ(file.units.size(), 2u);
    const trace::TraceUnit &unit0 = file.units[0];
    EXPECT_EQ(unit0.info.pmdMillivolts, 920.0);
    EXPECT_EQ(unit0.info.frequencyHz, 2.4e9);
    ASSERT_EQ(unit0.info.workloads.size(), 2u);
    EXPECT_EQ(unit0.info.workloads[1], "CG");
    ASSERT_EQ(unit0.events.size(), 4u);
    EXPECT_EQ(unit0.events[0].type, EventType::Injection);
    EXPECT_EQ(unit0.events[0].when, 100u);
    EXPECT_EQ(unit0.events[0].bit, 63u);
    EXPECT_EQ(unit0.events[0].aux, 3u);
    EXPECT_EQ(unit0.events[1].bit, trace::noBit);
    EXPECT_EQ(unit0.events[2].word, trace::noWord);
    EXPECT_EQ(unit0.events[2].when, 250u); // equal timestamps survive
    EXPECT_EQ(unit0.events[3].array, trace::noArray);
    EXPECT_EQ(unit0.events[3].bit, 2u);
    EXPECT_EQ(unit0.events[3].aux, 5u);

    const trace::TraceUnit &unit1 = file.units[1];
    EXPECT_EQ(unit1.info.session, 1u);
    EXPECT_EQ(unit1.info.replicate, 4u);
    EXPECT_EQ(unit1.dropped, 1u);
    ASSERT_EQ(unit1.events.size(), 1u);
    EXPECT_EQ(unit1.events[0].word, 1063u);

    EXPECT_EQ(file.totalEvents(), 5u);
    EXPECT_EQ(file.totalDropped(), 1u);
    const auto totals = file.typeCounts();
    EXPECT_EQ(totals[static_cast<size_t>(EventType::Injection)], 1u);
    EXPECT_EQ(totals[static_cast<size_t>(EventType::EccCorrect)], 1u);
}

TEST(TraceRejection, BadMagic)
{
    ByteWriter bytes;
    bytes.raw("NOPE");
    bytes.varint(1);
    const trace::TraceFile file = trace::decodeTrace(bytes.data());
    EXPECT_FALSE(file.ok);
    EXPECT_NE(file.error.find("bad magic"), std::string::npos);
}

TEST(TraceRejection, UnsupportedVersion)
{
    ByteWriter bytes;
    bytes.raw(std::string_view(trace::traceMagic, 4));
    bytes.varint(trace::traceFormatVersion + 1);
    bytes.varint(0); // seed
    bytes.varint(0); // hash
    bytes.varint(0); // arrays
    bytes.varint(0); // units
    const trace::TraceFile file = trace::decodeTrace(bytes.data());
    EXPECT_FALSE(file.ok);
    EXPECT_NE(file.error.find("unsupported trace version"),
              std::string::npos);
}

TEST(TraceRejection, EveryTruncationFailsAndTrailingBytesFail)
{
    const std::string path = testing::TempDir() + "truncate.xtrace";
    const std::string bytes = writeFixtureTrace(path);
    ASSERT_GT(bytes.size(), 8u);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
        const trace::TraceFile file =
            trace::decodeTrace(std::string_view(bytes).substr(0, cut));
        EXPECT_FALSE(file.ok) << "prefix of " << cut
                              << " bytes decoded successfully";
    }
    const trace::TraceFile trailing = trace::decodeTrace(bytes + '\0');
    EXPECT_FALSE(trailing.ok);
    EXPECT_NE(trailing.error.find("trailing"), std::string::npos);
}

TEST(TraceRejection, UnknownEventType)
{
    ByteWriter bytes;
    bytes.raw(std::string_view(trace::traceMagic, 4));
    bytes.varint(trace::traceFormatVersion);
    bytes.varint(0); // seed
    bytes.varint(0); // hash
    bytes.varint(0); // no arrays
    bytes.varint(1); // one unit
    bytes.varint(0); // session
    bytes.varint(0); // replicate
    bytes.f64(0.0);
    bytes.f64(0.0);
    bytes.f64(0.0);
    bytes.varint(0); // no workloads
    bytes.varint(0); // dropped
    bytes.varint(1); // one event
    bytes.varint(99); // bogus type
    bytes.varint(0);  // when
    bytes.varint(0);  // array
    bytes.varint(0);  // word
    bytes.varint(0);  // bit
    bytes.varint(0);  // aux
    const trace::TraceFile file = trace::decodeTrace(bytes.data());
    EXPECT_FALSE(file.ok);
    EXPECT_NE(file.error.find("unknown event type"), std::string::npos);
}

/** Fast-but-real campaign (mirrors test_parallel.cc). */
core::CampaignConfig
tinyCampaign(uint64_t seed = 0x5e5510ULL)
{
    core::CampaignConfig config =
        core::BeamCampaign::paperCampaign(0.02, seed);
    for (auto &session : config.sessions) {
        session.maxErrorEvents = 6;
        session.maxFluence = 2e9;
        session.warmupRounds = 2;
    }
    return config;
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

std::string
campaignTraceBytes(unsigned jobs)
{
    const std::string path = testing::TempDir() + "campaign-jobs" +
                             std::to_string(jobs) + ".xtrace";
    core::ParallelRunConfig run;
    run.jobs = jobs;
    run.replicates = 2;
    trace::TraceWriter writer(path);
    core::ParallelCampaignRunner runner(tinyCampaign(), run);
    runner.executeAll(&writer);
    return readFileBytes(path);
}

TEST(ParallelTraceDeterminism, ByteIdenticalForAnyWorkerCount)
{
    const std::string jobs1 = campaignTraceBytes(1);
    const std::string jobs2 = campaignTraceBytes(2);
    const std::string jobs8 = campaignTraceBytes(8);
    ASSERT_FALSE(jobs1.empty());
    EXPECT_EQ(jobs1, jobs2);
    EXPECT_EQ(jobs1, jobs8);

    const trace::TraceFile file = trace::decodeTrace(jobs1);
    ASSERT_TRUE(file.ok) << file.error;
    EXPECT_EQ(file.units.size(), 8u); // 4 sessions x 2 replicates
    EXPECT_GT(file.totalEvents(), 0u);
}

TEST(ParallelTraceDeterminism, ByteIdenticalWithFastPathOff)
{
    // The full equivalence contract at trace granularity: disabling the
    // event-driven fast path must reproduce the default-on trace file
    // byte for byte -- same injections, same detections, same
    // timestamps, same encoding. The config hash deliberately excludes
    // the fastPath/skipAhead knobs (they are proven observationally
    // equivalent, not configuration), so even the headers match.
    const std::string path =
        testing::TempDir() + "campaign-fastoff.xtrace";
    core::CampaignConfig config = tinyCampaign();
    core::setFastPath(config, false);
    core::ParallelRunConfig run;
    run.jobs = 1;
    run.replicates = 2;
    trace::TraceWriter writer(path);
    core::ParallelCampaignRunner runner(config, run);
    runner.executeAll(&writer);
    const std::string fast_off = readFileBytes(path);
    ASSERT_FALSE(fast_off.empty());
    EXPECT_EQ(fast_off, campaignTraceBytes(1));
}

TEST(TraceEdacCrossCheck, SessionCountersMatchTheTrace)
{
    core::SessionConfig config;
    config.point.pmdMillivolts = 920.0;
    config.point.socMillivolts = 950.0;
    config.point.frequencyHz = 2.4e9;
    config.point.name = config.point.label();
    config.maxErrorEvents = 4;
    config.maxFluence = 1e9;
    config.warmupRounds = 1;
    config.seed = 7;

    TraceBuffer buffer;
    config.traceSink = &buffer;
    cpu::XGene2Platform platform;
    core::TestSession session(&platform, config);
    const core::SessionResult result = session.execute();

    // Raw-upset side: one Injection record per beam upset event.
    EXPECT_EQ(result.rawUpsetEvents,
              buffer.count(EventType::Injection));

    // Detection side: per level, CE + UE tallies must equal the
    // hardware-visible detection records -- the release-build version
    // of the debug assert inside TestSession::execute().
    uint64_t detections = 0;
    for (size_t level = 0; level < mem::numCacheLevels; ++level) {
        const mem::EdacTally &tally = result.edac[level];
        EXPECT_EQ(tally.corrected + tally.uncorrected,
                  buffer.detectionCount(static_cast<uint8_t>(level)))
            << "level " << level;
        detections +=
            buffer.detectionCount(static_cast<uint8_t>(level));
    }
    EXPECT_EQ(result.upsetsDetected, detections);

    // Lifecycle closure: every counted run was classified.
    EXPECT_EQ(result.runs,
              buffer.count(EventType::OutcomeClassified));
    EXPECT_EQ(buffer.dropped(), 0u);
}

TEST(GoldenCampaignTrace, PerTypeEventCountsPinned)
{
    const std::string path = testing::TempDir() + "golden.xtrace";
    core::ParallelRunConfig run;
    run.jobs = 8;
    trace::TraceWriter writer(path);
    core::ParallelCampaignRunner runner(
        core::BeamCampaign::paperCampaign(0.02, 0x5e5510ULL), run);
    runner.executeAll(&writer);

    const trace::TraceFile file = trace::readTraceFile(path);
    ASSERT_TRUE(file.ok) << file.error;
    ASSERT_EQ(file.units.size(), 4u);

    // Pinned alongside GoldenCampaign.HeadlineNumbersPinned: any
    // change to beam sampling, detection, or instrumentation placement
    // must be justified and these numbers re-derived. Last re-derived
    // for the dose-space skip-ahead beam sampler (see the matching
    // comment in test_core.cc); the fast path itself is pinned to these
    // very bytes by ByteIdenticalWithFastPathOff above.
    const auto totals = file.typeCounts();
    EXPECT_EQ(totals[static_cast<size_t>(EventType::Injection)], 1315u);
    EXPECT_EQ(totals[static_cast<size_t>(EventType::ParityDetect)], 4u);
    EXPECT_EQ(totals[static_cast<size_t>(EventType::EccCorrect)], 128u);
    EXPECT_EQ(totals[static_cast<size_t>(EventType::EccMiscorrect)],
              3u);
    EXPECT_EQ(totals[static_cast<size_t>(EventType::UeDetect)], 3u);
    EXPECT_EQ(totals[static_cast<size_t>(EventType::Scrub)], 12u);
    EXPECT_EQ(totals[static_cast<size_t>(EventType::Propagate)], 0u);

    // The outcome records must agree with the session run counts
    // pinned in test_core.cc: 13 + 13 + 8 + 1 runs.
    EXPECT_EQ(
        totals[static_cast<size_t>(EventType::OutcomeClassified)], 35u);
}

} // namespace
} // namespace xser
