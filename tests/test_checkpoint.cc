/**
 * @file
 * Checkpoint/fork engine tests: envelope validation (paranoid-decode
 * style, like the .xtrace reader's), the snapshot -> restore ->
 * re-snapshot fixed-point property, fork-vs-straight-run equivalence
 * for a single session, and the campaign-level gate -- the pool's
 * forked units must equal every unit run straight through, byte for
 * byte in aggregates and trace bytes, for any worker count.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/beam_campaign.hh"
#include "core/checkpoint.hh"
#include "core/golden_prefix.hh"
#include "core/parallel_campaign.hh"
#include "core/shard_executor.hh"
#include "core/test_session.hh"
#include "cpu/xgene2_platform.hh"
#include "sim/golden_image.hh"
#include "sim/hash.hh"
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

/** The golden image of a prefix run on or loaded into `platform`. */
GoldenImage
imageOf(GoldenPrefix &prefix, cpu::XGene2Platform &platform,
        const PrefixKey &key)
{
    return GoldenImage::capture(
        [&](Archive &ar) { prefix.visit(ar, platform, key); });
}

/** A prefix loaded from its image into `platform`. */
GoldenPrefix
loadPrefix(const GoldenImage &image, cpu::XGene2Platform &platform,
           const PrefixKey &key)
{
    GoldenPrefix prefix;
    image.loadInto([&](Archive &ar) { prefix.visit(ar, platform, key); });
    return prefix;
}

/** Run `session`'s golden prefix on a fresh platform; its image. */
GoldenImage
prefixImage(const SessionConfig &session)
{
    const PrefixKey key = prefixKeyOf(cpu::PlatformConfig{}, session);
    cpu::XGene2Platform platform(key.platform);
    GoldenPrefix prefix;
    prefix.run(platform, key);
    return imageOf(prefix, platform, key);
}

/** `session`'s continuation, forked on a fresh platform from `image`. */
SessionResult
forkFrom(const GoldenImage &image, const SessionConfig &session)
{
    const PrefixKey key = prefixKeyOf(cpu::PlatformConfig{}, session);
    cpu::XGene2Platform platform(key.platform);
    GoldenPrefix prefix = loadPrefix(image, platform, key);
    return TestSession(&platform, session).runContinuation(std::move(prefix));
}

TEST(CheckpointEnvelope, SealOpenRoundTrip)
{
    const std::string payload("\xde\xad\xbe\xef\x00\x42", 6);
    const std::string blob = sealCheckpoint(0x1234abcdULL, payload);
    const CheckpointView view = openCheckpoint(blob);
    ASSERT_TRUE(view.ok) << view.error;
    EXPECT_EQ(view.keyHash, 0x1234abcdULL);
    EXPECT_EQ(view.payload, payload);
}

TEST(CheckpointEnvelope, EmptyPayloadRoundTrips)
{
    const std::string blob = sealCheckpoint(7, {});
    const CheckpointView view = openCheckpoint(blob);
    ASSERT_TRUE(view.ok) << view.error;
    EXPECT_TRUE(view.payload.empty());
}

TEST(CheckpointEnvelope, RejectsTruncationAtEveryLength)
{
    const std::string blob =
        sealCheckpoint(0xabcdULL, {1, 2, 3, 4, 5, 6, 7, 8});
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
    // surfaces as a changed identity field (the prefix key hash) that
    // the caller's cross-check refuses. Nothing decodes silently to
    // the original identity with different content.
    const std::string blob = sealCheckpoint(0xabcdULL, {9, 8, 7, 6, 5});
    for (size_t i = 0; i < blob.size(); ++i) {
        std::string corrupted = blob;
        corrupted[i] = static_cast<char>(corrupted[i] ^ 0x20);
        const CheckpointView view = openCheckpoint(corrupted);
        if (!view.ok)
            continue;
        EXPECT_NE(view.keyHash, 0xabcdULL)
            << "flip in byte " << i
            << " decoded to the original identity";
    }
}

TEST(CheckpointEnvelope, RejectsTrailingGarbage)
{
    std::string blob = sealCheckpoint(1, {1, 2, 3});
    blob.push_back('\xff');
    const CheckpointView view = openCheckpoint(blob);
    EXPECT_FALSE(view.ok);
}

TEST(CheckpointEnvelope, RejectsWrongVersion)
{
    std::string blob = sealCheckpoint(1, {1, 2, 3});
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
    const PrefixKey key = prefixKeyOf(cpu::PlatformConfig{}, session_config);
    const GoldenImage first = prefixImage(session_config);

    cpu::XGene2Platform restored(key.platform);
    GoldenPrefix adopted = loadPrefix(first, restored, key);
    EXPECT_TRUE(*imageOf(adopted, restored, key).bytes == *first.bytes);
}

TEST(CheckpointRoundTrip, ForkedContinuationMatchesStraightRun)
{
    const SessionConfig session_config = tinySession();

    cpu::XGene2Platform straight_platform(cpu::PlatformConfig{});
    TestSession straight(&straight_platform, session_config);
    const SessionResult expected = straight.execute();

    const SessionResult actual =
        forkFrom(prefixImage(session_config), session_config);

    expectSessionsBitIdentical(expected, actual);
}

TEST(CheckpointRoundTrip, OnePrefixForksDistinctSeeds)
{
    // The importance-splitting claim: one snapshot serves every
    // replicate seed, and different seeds genuinely diverge.
    const GoldenImage image = prefixImage(tinySession(1));

    std::vector<SessionResult> results;
    for (const uint64_t seed : {1ULL, 2ULL}) {
        // Straight run with this seed...
        cpu::XGene2Platform straight_platform(cpu::PlatformConfig{});
        TestSession straight(&straight_platform, tinySession(seed));
        const SessionResult expected = straight.execute();
        // ...must match a fork of the seed-1 prefix under this seed.
        const SessionResult actual = forkFrom(image, tinySession(seed));
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
    // Units trust the Checkpoint they restore from, so its one-time
    // check is the only one: a flipped payload byte must stop the
    // process.
    const ShardExecutor executor(twoTinySessions(), 0x5e5510ULL, 0);
    std::string envelope = executor.sealPrefix();
    envelope[envelope.size() / 2] ^= 0x01;
    EXPECT_EXIT(Checkpoint(std::move(envelope), executor.prefixKeyHash()),
                ::testing::ExitedWithCode(1),
                "refusing checkpoint: checkpoint payload checksum "
                "mismatch");
}

TEST(CheckpointPrefixDeath, OpenRefusesAnotherKeysEnvelope)
{
    // The fast-path setting is part of the key (raw images differ
    // between modes), so an envelope sealed with it on must not serve
    // a session that runs with it off.
    CampaignConfig reference = twoTinySessions();
    setFastPath(reference, false);
    const ShardExecutor sealer(twoTinySessions(), 0x5e5510ULL, 0);
    const ShardExecutor opener(reference, 0x5e5510ULL, 0);
    ASSERT_NE(sealer.prefixKeyHash(), opener.prefixKeyHash());
    EXPECT_EXIT(Checkpoint(sealer.sealPrefix(), opener.prefixKeyHash()),
                ::testing::ExitedWithCode(1),
                "refusing checkpoint: prefix key hash");
}

TEST(CheckpointPrefixDeath, APayloadThatDoesNotLoadExactlyIsFatal)
{
    // A payload sealed with a byte too many or too few passes the
    // checksum; the unit's load must refuse it either way.
    const ShardExecutor executor(twoTinySessions(), 0x5e5510ULL, 0);
    const uint64_t key = executor.prefixKeyHash();
    const std::string payload(openCheckpoint(executor.sealPrefix()).payload);
    {
        const Checkpoint trailing(sealCheckpoint(key, payload + '\0'), key);
        EXPECT_EXIT(executor.runUnit(0, 0, trailing),
                    ::testing::ExitedWithCode(1),
                    "golden image not fully consumed by load");
    }
    const Checkpoint truncated(
        sealCheckpoint(key, payload.substr(0, payload.size() - 1)), key);
    EXPECT_EXIT(executor.runUnit(0, 0, truncated),
                ::testing::ExitedWithCode(1),
                "golden image underran during load");
}

TEST(CheckpointPrefixDeath, CampaignOfTwoPrefixKeysIsRefused)
{
    // A different workload set is a different prefix. A campaign runs
    // from one, so the pool refuses it before sealing or running
    // anything, naming the first session that differs.
    CampaignConfig config = twoTinySessions();
    config.sessions[1].workloadNames = {"IS"};
    ParallelRunConfig run;
    run.jobs = 2;
    ParallelCampaignRunner runner(config, run);
    EXPECT_EXIT(runner.executeAll(), ::testing::ExitedWithCode(1),
                "session 1 needs another golden prefix than session 0");
}

/** The merged counters of one pool run. */
telemetry::MetricShard
pooledCounters(const CampaignConfig &config, unsigned replicates)
{
    telemetry::MetricRegistry registry(2);
    ParallelRunConfig run;
    run.jobs = 2;
    run.replicates = replicates;
    run.metrics = &registry;
    ParallelCampaignRunner runner(config, run);
    runner.executeAll();
    return registry.merged();
}

uint64_t
counterOf(const telemetry::MetricShard &shard, telemetry::Counter which)
{
    return shard.counters[static_cast<size_t>(which)];
}

TEST(CheckpointTelemetry, OpenedCountersCountOneRestorePerUnit)
{
    // Each envelope is verified once, but every unit restores from
    // one: the opened counters stay per unit, so a local pool (one
    // open per campaign) and a worker (one per key it seals) report
    // the same manifest. One envelope serves all six units.
    const telemetry::MetricShard merged =
        pooledCounters(twoTinySessions(), 3);
    using telemetry::Counter;
    EXPECT_EQ(counterOf(merged, Counter::CheckpointsSealed), 1u);
    EXPECT_EQ(counterOf(merged, Counter::CheckpointsOpened), 6u);
    EXPECT_GT(counterOf(merged, Counter::CheckpointSealedBytes), 0u);
    EXPECT_EQ(counterOf(merged, Counter::CheckpointOpenedBytes),
              6 * counterOf(merged, Counter::CheckpointSealedBytes));
}

TEST(PrefixKey, EveryBuiltCampaignHasOneKeyPerFastPathSetting)
{
    // A worker holds one sealed prefix on the strength of this: whatever
    // the scale and seed, every session of a campaign buildCampaign()
    // makes shares one key (campaignPrefixKey would refuse it
    // otherwise). Only the fast-path setting, which tests flip through
    // setFastPath, changes it.
    std::vector<uint64_t> keys;
    for (const bool fastpath : {true, false}) {
        for (const double scale : {0.005, 0.22, 1.0}) {
            for (const uint64_t seed : {7ULL, 0x5e5510ULL}) {
                CampaignParams params;
                params.scale = scale;
                params.seed = seed;
                CampaignConfig config = buildCampaign(params);
                setFastPath(config, fastpath);
                keys.push_back(prefixKeyHash(campaignPrefixKey(config)));
            }
        }
    }
    EXPECT_EQ(std::set<uint64_t>(keys.begin(), keys.begin() + 6).size(),
              1u);
    EXPECT_EQ(std::set<uint64_t>(keys.begin(), keys.end()).size(), 2u);
}

TEST(PrefixKey, HashCoversEveryFieldThePrefixReads)
{
    const PrefixKey base = prefixKeyOf(cpu::PlatformConfig{},
                                       tinySession());
    const uint64_t base_hash = prefixKeyHash(base);
    const auto expectChanges = [&](const char *field, auto mutate) {
        PrefixKey key = base;
        mutate(key);
        EXPECT_NE(prefixKeyHash(key), base_hash) << field;
    };
    expectChanges("l2Bytes", [](PrefixKey &k) {
        k.platform.memory.l2Bytes *= 2;
    });
    expectChanges("l1HitCycles", [](PrefixKey &k) {
        ++k.platform.memory.l1HitCycles;
    });
    expectChanges("l2HitCycles", [](PrefixKey &k) {
        ++k.platform.memory.l2HitCycles;
    });
    expectChanges("l3HitCycles", [](PrefixKey &k) {
        ++k.platform.memory.l3HitCycles;
    });
    expectChanges("dramCycles", [](PrefixKey &k) {
        ++k.platform.memory.dramCycles;
    });
    expectChanges("fastPath", [](PrefixKey &k) {
        k.platform.memory.fastPath = false;
    });
    expectChanges("l3Protection", [](PrefixKey &k) {
        k.platform.memory.l3Protection = mem::Protection::Parity;
    });
    expectChanges("contentSeed", [](PrefixKey &k) {
        ++k.platform.memory.contentSeed;
    });
    expectChanges("chipSeed", [](PrefixKey &k) {
        ++k.platform.chipSeed;
    });
    expectChanges("ifetchTouchesPerAccess", [](PrefixKey &k) {
        k.platform.coreTemplate.ifetchTouchesPerAccess *= 2.0;
    });
    expectChanges("workloadNames", [](PrefixKey &k) {
        k.workloadNames.push_back("CG");
    });
    expectChanges("quantumAccesses", [](PrefixKey &k) {
        k.quantumAccesses *= 2;
    });

    // What only the continuation reads stays out of the key.
    SessionConfig other = tinySession(99);
    other.point = volt::vmin900Point();
    other.scrub.l2PassPeriod *= 2;
    other.maxErrorEvents = 1;
    other.maxFluence = 1.0;
    other.warmupRounds = 7;
    other.beam.skipAhead = false;
    EXPECT_EQ(prefixKeyHash(prefixKeyOf(cpu::PlatformConfig{}, other)),
              base_hash);
}

TEST(CheckpointRoundTrip, OnePrefixServesEveryOperatingPoint)
{
    // The prefix carries no time: a prefix taken for a nominal 2.4 GHz
    // session, restored into a 790 mV @ 900 MHz session with a slower
    // scrub, must reproduce that session's straight run bit for bit.
    SessionConfig slow = tinySession(3);
    slow.point = volt::vmin900Point();
    slow.scrub.l2PassPeriod *= 3;

    cpu::XGene2Platform straight_platform(cpu::PlatformConfig{});
    TestSession straight(&straight_platform, slow);
    const SessionResult expected = straight.execute();

    const SessionResult actual = forkFrom(prefixImage(tinySession()), slow);

    expectSessionsBitIdentical(expected, actual);
    EXPECT_TRUE(expected == actual);
    EXPECT_EQ(expected.point.frequencyHz, 900e6);
}

/* ------------- golden pages: borrowed, copied on first write ------------ */

/**
 * A two-core platform with a 64 KiB L3, so that writing the golden
 * pages again evicts dirty lines into DRAM long before a flush.
 */
cpu::PlatformConfig
smallPlatform()
{
    cpu::PlatformConfig config;
    config.memory.numCores = 2;
    config.memory.l1iBytes = 4 * 1024;
    config.memory.l1dBytes = 4 * 1024;
    config.memory.l2Bytes = 16 * 1024;
    config.memory.l3Bytes = 64 * 1024;
    config.memory.tlbWordsPerCore = 64;
    return config;
}

/** Twice the L3: 32 DRAM pages of distinct words. */
constexpr size_t goldenPageCount = 32;
constexpr size_t goldenBytes = goldenPageCount * 4096;

uint64_t
goldenWord(mem::Addr addr)
{
    return addr * 0x9e3779b97f4a7c15ULL;
}

/** Every word of the golden pages. */
std::vector<uint64_t>
readGoldenPages(cpu::XGene2Platform &platform, mem::Addr base)
{
    std::vector<uint64_t> words;
    for (mem::Addr addr = base; addr < base + goldenBytes; addr += 8)
        words.push_back(platform.memory().readWord(1, addr));
    return words;
}

/**
 * A platform whose DRAM holds the golden pages and whose caches are
 * flushed: every read of a page loaded from its image reaches DRAM.
 */
struct GoldenSource {
    cpu::XGene2Platform platform{smallPlatform()};
    mem::Addr base = platform.memory().allocate(goldenBytes, "golden");

    GoldenSource()
    {
        for (mem::Addr addr = base; addr < base + goldenBytes; addr += 8)
            platform.memory().writeWord(0, addr, goldenWord(addr));
        platform.memory().flushAll();
    }
};

GoldenImage::Walk
walkOf(cpu::XGene2Platform &platform)
{
    return [&platform](Archive &ar) { platform.visit(ar); };
}

TEST(GoldenPages, APlatformsWritesReachNeitherItsSiblingNorTheImage)
{
    GoldenSource source;
    const GoldenImage image = GoldenImage::capture(walkOf(source.platform));
    const uint64_t image_hash = fnv1a(*image.bytes);
    cpu::XGene2Platform writer(smallPlatform());
    cpu::XGene2Platform reader(smallPlatform());
    image.loadInto(walkOf(writer));
    image.loadInto(walkOf(reader));
    const std::string reader_bytes = GoldenImage::save(walkOf(reader));

    // The writer overwrites every golden word twice (dirty L3 victims
    // reach DRAM on the way) and flushes on its own thread, while this
    // thread reads the image, as pool units share one.
    std::thread writing([&] {
        for (const uint64_t salt : {1ULL, 2ULL}) {
            for (mem::Addr addr = source.base;
                 addr < source.base + goldenBytes; addr += 8)
                writer.memory().writeWord(0, addr, goldenWord(addr) ^ salt);
        }
        writer.memory().flushAll();
    });
    const uint64_t concurrent_hash = fnv1a(*image.bytes);
    writing.join();

    EXPECT_EQ(concurrent_hash, image_hash);
    EXPECT_EQ(fnv1a(*image.bytes), image_hash);
    EXPECT_TRUE(GoldenImage::save(walkOf(reader)) == reader_bytes);
    const std::vector<uint64_t> written = readGoldenPages(writer, source.base);
    const std::vector<uint64_t> golden = readGoldenPages(reader, source.base);
    for (size_t i = 0; i < golden.size(); ++i) {
        const uint64_t expected = goldenWord(source.base + 8 * i);
        ASSERT_EQ(written[i], expected ^ 2) << "word " << i;
        ASSERT_EQ(golden[i], expected) << "word " << i;
    }
}

TEST(GoldenPages, BorrowedPagesOutliveEveryOtherOwnerOfTheImage)
{
    cpu::XGene2Platform platform(smallPlatform());
    mem::Addr base = 0;
    {
        GoldenSource source;
        base = source.base;
        GoldenImage::capture(walkOf(source.platform))
            .loadInto(walkOf(platform));
    }
    // The image and the platform it was captured from are gone; the
    // borrowed pages still read the golden words (ASan would report a
    // freed image here).
    const std::vector<uint64_t> words = readGoldenPages(platform, base);
    for (size_t i = 0; i < words.size(); ++i)
        ASSERT_EQ(words[i], goldenWord(base + 8 * i)) << "word " << i;
}

TEST(GoldenPages, ReadingAPageTheImageLacksAddsAZeroPage)
{
    GoldenSource source;
    const GoldenImage image = GoldenImage::capture(walkOf(source.platform));
    cpu::XGene2Platform loaded(smallPlatform());
    image.loadInto(walkOf(loaded));

    // The same read on the platform that owns its pages and on one that
    // borrows them: both add one zero page and then save the same bytes.
    const mem::Addr beyond = source.base + goldenBytes;
    EXPECT_EQ(source.platform.memory().readWord(0, beyond), 0u);
    EXPECT_EQ(loaded.memory().readWord(0, beyond), 0u);
    const std::string saved = GoldenImage::save(walkOf(loaded));
    EXPECT_TRUE(saved == GoldenImage::save(walkOf(source.platform)));
    EXPECT_EQ(saved.size(), image.bytes->size() + 8 + 8 + 4096);
}

TEST(GoldenPages, CopiesCountOnePerFirstWriteToABorrowedPage)
{
    GoldenSource source;
    const GoldenImage image = GoldenImage::capture(walkOf(source.platform));
    cpu::XGene2Platform platform(smallPlatform());
    image.loadInto(walkOf(platform));
    mem::MemorySystem &memory = platform.memory();
    telemetry::MetricShard shard;
    const telemetry::ShardScope scope(&shard);
    const auto copies = [&shard] {
        return counterOf(shard, telemetry::Counter::DramPagesCopied);
    };

    readGoldenPages(platform, source.base);
    memory.flushAll();
    EXPECT_EQ(copies(), 0u) << "reads copy nothing";

    memory.writeWord(0, source.base, 1);
    memory.writeWord(0, source.base + 8, 2);
    memory.writeWord(0, source.base + 4096, 3);
    memory.flushAll();
    EXPECT_EQ(copies(), 2u) << "one copy per page first written";

    memory.writeWord(0, source.base + 16, 4);
    memory.flushAll();
    EXPECT_EQ(copies(), 2u) << "an owned page is not copied again";

    memory.writeWord(0, source.base + goldenBytes, 5);
    memory.flushAll();
    EXPECT_EQ(copies(), 2u) << "a page the image lacks starts zeroed";

    source.platform.memory().writeWord(0, source.base, 6);
    source.platform.memory().flushAll();
    EXPECT_EQ(copies(), 2u) << "a platform that never loaded copies none";
}

/**
 * Campaign-scale gate (ctest label `slow`): the pool, which forks
 * every unit from the campaign's one sealed prefix, must equal every
 * unit run straight through -- TestSession::execute() on a fresh
 * platform with the unit's own config -- byte for byte, aggregates and
 * trace, at jobs 1 and 8.
 */
class CheckpointForkDeterminism : public ::testing::Test
{
  protected:
    static constexpr unsigned replicates = 2;

    static void
    SetUpTestSuite()
    {
        const CampaignConfig config = tinyCampaign();
        const ParallelRunConfig run;
        const ShardExecutor executor(config, run.seed, 0);
        std::vector<UnitOutcome> units;
        for (unsigned r = 0; r < replicates; ++r) {
            for (size_t s = 0; s < config.sessions.size(); ++s) {
                trace::TraceBuffer buffer;
                cpu::XGene2Platform platform(config.platform);
                TestSession session(&platform,
                                    executor.unitConfig(s, r, &buffer));
                UnitOutcome unit;
                unit.result = session.execute();
                unit.traceEventCount = buffer.events().size();
                unit.traceBytes = trace::TraceWriter::encodeUnit(buffer);
                units.push_back(std::move(unit));
            }
        }
        reference_ = new ReplicatedCampaignResult(
            mergeUnitOutcomes(units, config.sessions.size()));
        referenceTrace_ = new std::string(
            encodeCampaignTrace(config, run.seed, units));
    }

    static void
    TearDownTestSuite()
    {
        delete reference_;
        reference_ = nullptr;
        delete referenceTrace_;
        referenceTrace_ = nullptr;
    }

    static ReplicatedCampaignResult
    pooled(unsigned jobs, trace::TraceWriter *writer = nullptr)
    {
        ParallelRunConfig run;
        run.jobs = jobs;
        run.replicates = replicates;
        ParallelCampaignRunner runner(tinyCampaign(), run);
        return runner.executeAll(writer);
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
                EXPECT_TRUE(a.sessions[s] == b.sessions[s]);
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
    static std::string *referenceTrace_;
};

ReplicatedCampaignResult *CheckpointForkDeterminism::reference_ = nullptr;
std::string *CheckpointForkDeterminism::referenceTrace_ = nullptr;

TEST_F(CheckpointForkDeterminism, OneWorkerMatchesUncheckpointed)
{
    expectMatchesReference(pooled(1));
}

TEST_F(CheckpointForkDeterminism, EightWorkersMatchUncheckpointed)
{
    expectMatchesReference(pooled(8));
}

TEST_F(CheckpointForkDeterminism, TraceBytesIdenticalOnAndOff)
{
    // The strongest equality we can state: the .xtrace files -- every
    // event, timestamp, and header word -- are the same bytes whether
    // continuations were forked (the pool, at any job count) or every
    // unit ran its prefix itself (the straight reference).
    ASSERT_FALSE(referenceTrace_->empty());
    for (const unsigned jobs : {1u, 8u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        const std::string path = ::testing::TempDir() + "ckpt_j" +
                                 std::to_string(jobs) + ".xtrace";
        {
            trace::TraceWriter writer(path);
            pooled(jobs, &writer);
        }
        EXPECT_EQ(readFileBytes(path), *referenceTrace_);
    }
}

} // namespace
} // namespace xser::core
