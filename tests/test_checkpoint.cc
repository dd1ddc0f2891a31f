/**
 * @file
 * Checkpoint/fork engine tests: envelope validation (paranoid-decode
 * style, like the .xtrace reader's), the snapshot -> restore ->
 * re-snapshot fixed-point property, fork-vs-straight-run equivalence
 * for a single session, and the campaign-level gate -- checkpoint on
 * vs off must be byte-identical in aggregates and trace bytes for any
 * worker count.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/beam_campaign.hh"
#include "core/checkpoint.hh"
#include "core/parallel_campaign.hh"
#include "core/shard_executor.hh"
#include "core/test_session.hh"
#include "cpu/xgene2_platform.hh"
#include "sim/bytes.hh"
#include "telemetry/metrics.hh"
#include "trace/trace_writer.hh"

namespace xser::core {
namespace {

/** Two-workload session sized for the fast test loop. */
SessionConfig
tinySession(uint64_t seed = 0x5e5510ULL)
{
    SessionConfig config;
    config.workloadNames = {"EP", "IS"};
    config.maxErrorEvents = 4;
    config.maxFluence = 1e9;
    config.warmupRounds = 1;
    config.seed = seed;
    return config;
}

/** Fast-but-real campaign: the paper's four sessions, tiny targets. */
CampaignConfig
tinyCampaign(uint64_t seed = 0x5e5510ULL)
{
    CampaignConfig config = BeamCampaign::paperCampaign(0.02, seed);
    for (auto &session : config.sessions) {
        session.maxErrorEvents = 6;
        session.maxFluence = 2e9;
        session.warmupRounds = 2;
    }
    return config;
}

void
expectSessionsBitIdentical(const SessionResult &a, const SessionResult &b)
{
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.upsetsDetected, b.upsetsDetected);
    EXPECT_EQ(a.rawUpsetEvents, b.rawUpsetEvents);
    EXPECT_EQ(a.events.sdcSilent, b.events.sdcSilent);
    EXPECT_EQ(a.events.sdcNotified, b.events.sdcNotified);
    EXPECT_EQ(a.events.appCrash, b.events.appCrash);
    EXPECT_EQ(a.events.sysCrash, b.events.sysCrash);
    // Bit-exact, not approximately equal: a forked continuation must
    // replay the same arithmetic as the straight-through run.
    EXPECT_EQ(a.fluence, b.fluence);
    EXPECT_EQ(a.duration, b.duration);
    EXPECT_EQ(a.avgPowerWatts, b.avgPowerWatts);
    ASSERT_EQ(a.perWorkload.size(), b.perWorkload.size());
    for (size_t w = 0; w < a.perWorkload.size(); ++w) {
        EXPECT_EQ(a.perWorkload[w].name, b.perWorkload[w].name);
        EXPECT_EQ(a.perWorkload[w].runs, b.perWorkload[w].runs);
        EXPECT_EQ(a.perWorkload[w].upsetsDetected,
                  b.perWorkload[w].upsetsDetected);
        EXPECT_EQ(a.perWorkload[w].fluence, b.perWorkload[w].fluence);
    }
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

/** Save a session's prefix through a writing archive. */
std::string
savePrefix(TestSession &session)
{
    ByteWriter writer;
    Archive archive(writer);
    session.visitPrefix(archive);
    return writer.take();
}

/** Adopt a saved prefix; true when the load consumed every byte. */
bool
loadPrefix(TestSession &session, const std::string &bytes)
{
    ByteReader reader(bytes);
    Archive archive(reader);
    session.visitPrefix(archive);
    return reader.atEnd();
}

TEST(CheckpointEnvelope, SealOpenRoundTrip)
{
    const std::string payload("\xde\xad\xbe\xef\x00\x42", 6);
    const std::string blob = sealCheckpoint(3, 0x1234abcdULL, payload);
    const CheckpointView view = openCheckpoint(blob);
    ASSERT_TRUE(view.ok) << view.error;
    EXPECT_EQ(view.sessionIndex, 3u);
    EXPECT_EQ(view.configHash, 0x1234abcdULL);
    EXPECT_EQ(view.payload, payload);
}

TEST(CheckpointEnvelope, EmptyPayloadRoundTrips)
{
    const std::string blob = sealCheckpoint(0, 7, {});
    const CheckpointView view = openCheckpoint(blob);
    ASSERT_TRUE(view.ok) << view.error;
    EXPECT_TRUE(view.payload.empty());
}

TEST(CheckpointEnvelope, RejectsTruncationAtEveryLength)
{
    const std::string blob =
        sealCheckpoint(1, 0xabcdULL, {1, 2, 3, 4, 5, 6, 7, 8});
    for (size_t cut = 0; cut < blob.size(); ++cut) {
        const CheckpointView view = openCheckpoint(blob.substr(0, cut));
        EXPECT_FALSE(view.ok) << "accepted a " << cut << "-byte prefix";
        EXPECT_FALSE(view.error.empty());
    }
}

TEST(CheckpointEnvelope, NoCorruptedByteSlipsThrough)
{
    // Every single-byte flip is either rejected outright (magic,
    // version, sizes, payload -- the checksum covers the payload) or
    // surfaces as a changed identity field (session index, config
    // hash) that the caller's cross-check refuses. Nothing decodes
    // silently to the original identity with different content.
    const std::string blob = sealCheckpoint(1, 0xabcdULL, {9, 8, 7, 6, 5});
    for (size_t i = 0; i < blob.size(); ++i) {
        std::string corrupted = blob;
        corrupted[i] = static_cast<char>(corrupted[i] ^ 0x20);
        const CheckpointView view = openCheckpoint(corrupted);
        if (!view.ok)
            continue;
        EXPECT_TRUE(view.sessionIndex != 1u ||
                    view.configHash != 0xabcdULL)
            << "flip in byte " << i
            << " decoded to the original identity";
    }
}

TEST(CheckpointEnvelope, RejectsTrailingGarbage)
{
    std::string blob = sealCheckpoint(0, 1, {1, 2, 3});
    blob.push_back('\xff');
    const CheckpointView view = openCheckpoint(blob);
    EXPECT_FALSE(view.ok);
}

TEST(CheckpointEnvelope, RejectsWrongVersion)
{
    std::string blob = sealCheckpoint(0, 1, {1, 2, 3});
    blob[8] = static_cast<char>(checkpointVersion + 1);
    const CheckpointView view = openCheckpoint(blob);
    EXPECT_FALSE(view.ok);
    EXPECT_NE(view.error.find("version"), std::string::npos);
}

TEST(CheckpointRoundTrip, RestoreIsASnapshotFixedPoint)
{
    // save(load(save(prefix))) == save(prefix), byte for byte: the
    // serialization misses nothing the serialization itself can see.
    // (Fork equivalence below closes the remaining gap: nothing
    // *outside* the snapshot matters either.)
    const SessionConfig session_config = tinySession();
    cpu::XGene2Platform original(cpu::PlatformConfig{});
    TestSession prefix(&original, session_config);
    prefix.runPrefix();
    const std::string first = savePrefix(prefix);

    cpu::XGene2Platform restored(cpu::PlatformConfig{});
    TestSession adopted(&restored, session_config);
    EXPECT_TRUE(loadPrefix(adopted, first));
    EXPECT_EQ(savePrefix(adopted), first);
}

TEST(CheckpointRoundTrip, ForkedContinuationMatchesStraightRun)
{
    const SessionConfig session_config = tinySession();

    cpu::XGene2Platform straight_platform(cpu::PlatformConfig{});
    TestSession straight(&straight_platform, session_config);
    const SessionResult expected = straight.execute();

    cpu::XGene2Platform prefix_platform(cpu::PlatformConfig{});
    TestSession prefix(&prefix_platform, session_config);
    prefix.runPrefix();
    const std::string blob = savePrefix(prefix);

    cpu::XGene2Platform fork_platform(cpu::PlatformConfig{});
    TestSession fork(&fork_platform, session_config);
    ASSERT_TRUE(loadPrefix(fork, blob));
    const SessionResult actual = fork.runContinuation();

    expectSessionsBitIdentical(expected, actual);
}

TEST(CheckpointRoundTrip, OnePrefixForksDistinctSeeds)
{
    // The importance-splitting claim: one snapshot serves every
    // replicate seed, and different seeds genuinely diverge.
    cpu::XGene2Platform prefix_platform(cpu::PlatformConfig{});
    TestSession prefix(&prefix_platform, tinySession(1));
    prefix.runPrefix();
    const std::string blob = savePrefix(prefix);

    std::vector<SessionResult> results;
    for (const uint64_t seed : {1ULL, 2ULL}) {
        // Straight run with this seed...
        cpu::XGene2Platform straight_platform(cpu::PlatformConfig{});
        TestSession straight(&straight_platform, tinySession(seed));
        const SessionResult expected = straight.execute();
        // ...must match a fork of the seed-1 prefix under this seed.
        cpu::XGene2Platform fork_platform(cpu::PlatformConfig{});
        TestSession fork(&fork_platform, tinySession(seed));
        ASSERT_TRUE(loadPrefix(fork, blob));
        const SessionResult actual = fork.runContinuation();
        expectSessionsBitIdentical(expected, actual);
        results.push_back(actual);
    }
    EXPECT_NE(results[0].rawUpsetEvents, results[1].rawUpsetEvents);
}

/** Two tiny sessions as one campaign, for the executor-level tests. */
CampaignConfig
twoTinySessions()
{
    CampaignConfig config;
    config.sessions = {tinySession(1), tinySession(2)};
    return config;
}

TEST(CheckpointPrefixDeath, OpenOnceRefusesACorruptedEnvelope)
{
    // Units trust the view openPrefix returns, so the one-time check
    // is the only one: a flipped payload byte must stop the process.
    const ShardExecutor executor(twoTinySessions(), 0x5e5510ULL, 0);
    std::string envelope = executor.sealPrefix(1);
    envelope[envelope.size() / 2] ^= 0x01;
    EXPECT_EXIT(executor.openPrefix(envelope, 1),
                ::testing::ExitedWithCode(1),
                "refusing checkpoint for session 1: checkpoint payload "
                "checksum mismatch");
}

TEST(CheckpointTelemetry, OpenedCountersCountOneRestorePerUnit)
{
    // Each envelope is verified once, but every unit restores from
    // one: the opened counters stay per unit, so a local pool (one
    // open per session) and a worker (one per session it seals) report
    // the same manifest.
    telemetry::MetricRegistry registry(2);
    ParallelRunConfig run;
    run.jobs = 2;
    run.replicates = 3;
    run.metrics = &registry;
    ParallelCampaignRunner runner(twoTinySessions(), run);
    runner.executeAll();

    const telemetry::MetricShard merged = registry.merged();
    auto counter = [&merged](telemetry::Counter which) {
        return merged.counters[static_cast<size_t>(which)];
    };
    EXPECT_EQ(counter(telemetry::Counter::CheckpointsSealed), 2u);
    EXPECT_EQ(counter(telemetry::Counter::CheckpointsOpened), 6u);
    // Each session's envelope is sealed once and restored by its three
    // units, so the unit envelopes sum to three times the sealed bytes.
    EXPECT_GT(counter(telemetry::Counter::CheckpointSealedBytes), 0u);
    EXPECT_EQ(counter(telemetry::Counter::CheckpointOpenedBytes),
              3 * counter(telemetry::Counter::CheckpointSealedBytes));
}

/**
 * Campaign-scale gate (ctest label `slow`): checkpoint on vs off must
 * agree byte for byte -- aggregates and trace -- at jobs 1 and 8.
 */
class CheckpointForkDeterminism : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        ParallelRunConfig run;
        run.jobs = 1;
        run.replicates = 2;
        run.checkpoint = false;
        ParallelCampaignRunner runner(tinyCampaign(), run);
        reference_ = new ReplicatedCampaignResult(runner.executeAll());
    }

    static void
    TearDownTestSuite()
    {
        delete reference_;
        reference_ = nullptr;
    }

    void
    expectMatchesReference(const ReplicatedCampaignResult &sweep)
    {
        ASSERT_EQ(sweep.replicates.size(),
                  reference_->replicates.size());
        for (size_t r = 0; r < sweep.replicates.size(); ++r) {
            const CampaignResult &a = reference_->replicates[r];
            const CampaignResult &b = sweep.replicates[r];
            ASSERT_EQ(a.sessions.size(), b.sessions.size());
            for (size_t s = 0; s < a.sessions.size(); ++s) {
                SCOPED_TRACE("replicate " + std::to_string(r) +
                             " session " + std::to_string(s));
                expectSessionsBitIdentical(a.sessions[s], b.sessions[s]);
            }
        }
        ASSERT_EQ(sweep.sessions.size(), reference_->sessions.size());
        for (size_t s = 0; s < sweep.sessions.size(); ++s) {
            EXPECT_EQ(reference_->sessions[s].fitTotal.mean(),
                      sweep.sessions[s].fitTotal.mean());
            EXPECT_EQ(reference_->sessions[s].fitTotal.variance(),
                      sweep.sessions[s].fitTotal.variance());
        }
    }

    static ReplicatedCampaignResult *reference_;
};

ReplicatedCampaignResult *CheckpointForkDeterminism::reference_ = nullptr;

TEST_F(CheckpointForkDeterminism, OneWorkerMatchesUncheckpointed)
{
    ParallelRunConfig run;
    run.jobs = 1;
    run.replicates = 2;
    run.checkpoint = true;
    ParallelCampaignRunner runner(tinyCampaign(), run);
    expectMatchesReference(runner.executeAll());
}

TEST_F(CheckpointForkDeterminism, EightWorkersMatchUncheckpointed)
{
    ParallelRunConfig run;
    run.jobs = 8;
    run.replicates = 2;
    run.checkpoint = true;
    ParallelCampaignRunner runner(tinyCampaign(), run);
    expectMatchesReference(runner.executeAll());
}

TEST_F(CheckpointForkDeterminism, TraceBytesIdenticalOnAndOff)
{
    // The strongest equality we can state: the .xtrace files -- every
    // event, timestamp, and header word -- are the same bytes whether
    // continuations were forked or prefixes replayed, at any job count.
    const std::string off_path =
        ::testing::TempDir() + "ckpt_off.xtrace";
    const std::string on_path = ::testing::TempDir() + "ckpt_on.xtrace";
    {
        ParallelRunConfig run;
        run.jobs = 1;
        run.replicates = 2;
        run.checkpoint = false;
        ParallelCampaignRunner runner(tinyCampaign(), run);
        trace::TraceWriter writer(off_path);
        runner.executeAll(&writer);
    }
    {
        ParallelRunConfig run;
        run.jobs = 8;
        run.replicates = 2;
        run.checkpoint = true;
        ParallelCampaignRunner runner(tinyCampaign(), run);
        trace::TraceWriter writer(on_path);
        runner.executeAll(&writer);
    }
    const std::string off_bytes = readFileBytes(off_path);
    const std::string on_bytes = readFileBytes(on_path);
    ASSERT_FALSE(off_bytes.empty());
    EXPECT_EQ(off_bytes, on_bytes);
}

} // namespace
} // namespace xser::core
