/**
 * @file
 * Tests for the simulation substrate: RNG streams and distributions,
 * and the simulated clock.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/bytes.hh"
#include "sim/golden_image.hh"
#include "sim/hash.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/sim_clock.hh"

namespace xser {
namespace {

/* ------------------------------ Rng ------------------------------ */

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.nextU64() == b.nextU64() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsDeterministicAndDecorrelated)
{
    Rng parent1(77);
    Rng parent2(77);
    Rng child1 = parent1.fork("beam");
    Rng child2 = parent2.fork("beam");
    Rng other = parent1.fork("logic");
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(child1.nextU64(), child2.nextU64());
    // A differently tagged fork must produce a different stream.
    Rng child3 = parent2.fork("beam");
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += other.nextU64() == child3.nextU64() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 10000; ++i) {
        const double value = rng.nextDouble();
        ASSERT_GE(value, 0.0);
        ASSERT_LT(value, 1.0);
    }
}

TEST(Rng, BoundedRespectsBound)
{
    Rng rng(6);
    std::set<uint64_t> seen;
    for (int i = 0; i < 10000; ++i) {
        const uint64_t value = rng.nextBounded(17);
        ASSERT_LT(value, 17u);
        seen.insert(value);
    }
    // All 17 residues should appear in 10k draws.
    EXPECT_EQ(seen.size(), 17u);
}

TEST(Rng, BernoulliEdgeCases)
{
    Rng rng(7);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(8);
    const int n = 200000;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double value = rng.nextGaussian();
        sum += value;
        sum_sq += value * value;
    }
    const double mean = sum / n;
    const double variance = sum_sq / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.01);
    EXPECT_NEAR(variance, 1.0, 0.02);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(9);
    const int n = 200000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.nextExponential(4.0);
    EXPECT_NEAR(sum / n, 0.25, 0.005);
}

/** Poisson mean/variance across the small-mean and large-mean paths. */
class PoissonSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(PoissonSweep, MeanAndVarianceMatch)
{
    const double mean = GetParam();
    Rng rng(static_cast<uint64_t>(mean * 1000) + 3);
    const int n = 100000;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double value =
            static_cast<double>(rng.nextPoisson(mean));
        sum += value;
        sum_sq += value * value;
    }
    const double sample_mean = sum / n;
    const double sample_var = sum_sq / n - sample_mean * sample_mean;
    const double tolerance = 5.0 * std::sqrt(mean / n) + 0.01;
    EXPECT_NEAR(sample_mean, mean, tolerance);
    // Poisson variance equals the mean.
    EXPECT_NEAR(sample_var, mean, 0.1 * mean + 0.02);
}

INSTANTIATE_TEST_SUITE_P(Means, PoissonSweep,
                         ::testing::Values(0.01, 0.1, 0.5, 1.0, 3.0,
                                           10.0, 29.0, 35.0, 100.0,
                                           1000.0));

TEST(Rng, PoissonZeroMeanIsZero)
{
    Rng rng(11);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextPoisson(0.0), 0u);
}

TEST(HashString, StableAndDistinct)
{
    EXPECT_EQ(fnv1a("beam"), fnv1a("beam"));
    EXPECT_NE(fnv1a("beam"), fnv1a("logic"));
    EXPECT_NE(fnv1a(""), fnv1a("a"));
}

/* ------------------------- hash and byte codec -------------------- */

TEST(Hash, FnvKnownAnswers)
{
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
    // Folding in pieces equals hashing the concatenation.
    EXPECT_EQ(fnv1a("bar", fnv1a("foo")), fnv1a("foobar"));
}

TEST(ByteCodec, FixedWidthIsLittleEndian)
{
    ByteWriter writer;
    writer.u8(0x01);
    writer.u32(0x05040302u);
    writer.u64(0x0d0c0b0a09080706ULL);
    EXPECT_EQ(writer.data(), std::string("\x01\x02\x03\x04\x05\x06\x07"
                                         "\x08\x09\x0a\x0b\x0c\x0d",
                                         13));
    ByteReader reader(writer.data());
    EXPECT_EQ(reader.u8(), 0x01u);
    EXPECT_EQ(reader.u32(), 0x05040302u);
    EXPECT_EQ(reader.u64(), 0x0d0c0b0a09080706ULL);
    EXPECT_TRUE(reader.atEnd());
}

TEST(ByteCodec, PrefixedStringsAndVectorsRoundTrip)
{
    const std::vector<uint64_t> words = {0, 1, UINT64_MAX, 0x1234};
    const std::vector<uint8_t> bytes = {0xff, 0x00, 0x7f};
    ByteWriter writer;
    writer.str32("abc");
    writer.str64(std::string("x\0y", 3));
    writer.strVarint("varint");
    writer.words(words);
    writer.bytes(bytes);
    // u32 + 3, u64 + 3, varint + 6, u64 + 32, u64 + 3.
    EXPECT_EQ(writer.size(), 7u + 11u + 7u + 40u + 11u);

    ByteReader reader(writer.data());
    EXPECT_EQ(reader.str32(), "abc");
    EXPECT_EQ(reader.str64(), std::string("x\0y", 3));
    EXPECT_EQ(reader.raw(reader.varint()), "varint");
    std::vector<uint64_t> words_out;
    std::vector<uint8_t> bytes_out;
    reader.words(words_out);
    reader.bytes(bytes_out);
    EXPECT_EQ(words_out, words);
    EXPECT_EQ(bytes_out, bytes);
    EXPECT_TRUE(reader.atEnd());
}

TEST(ByteCodec, UnderrunPoisonsAndStaysPoisoned)
{
    ByteWriter writer;
    writer.u32(7);
    ByteReader reader(writer.data());
    EXPECT_EQ(reader.u64(), 0u);  // only 4 bytes available
    EXPECT_FALSE(reader.ok());
    EXPECT_EQ(reader.u8(), 0u);   // still poisoned, though a byte is left
    EXPECT_EQ(reader.str32(), "");
    EXPECT_FALSE(reader.atEnd());
}

TEST(ByteCodec, HostileLengthsPoisonWithoutAllocating)
{
    ByteWriter writer;
    writer.u64(UINT64_MAX / 4);  // word count far beyond the input
    writer.u64(1);
    ByteReader reader(writer.data());
    std::vector<uint64_t> words = {5};
    reader.words(words);
    EXPECT_FALSE(reader.ok());
    EXPECT_TRUE(words.empty());

    ByteWriter strings;
    strings.u32(1000);
    strings.raw("short");
    ByteReader string_reader(strings.data());
    EXPECT_EQ(string_reader.str32(), "");
    EXPECT_FALSE(string_reader.ok());
}

/** A struct with one field list, for the Archive tests. */
struct Sample {
    uint64_t count = 0;
    uint32_t small = 0;
    bool flag = false;
    double value = 0.0;
    std::string name;
    std::vector<uint64_t> words;

    void
    visit(Archive &ar)
    {
        ar.u64(count);
        ar.u32(small);
        ar.u8(flag);
        ar.f64(value);
        ar.str64(name);
        ar.words(words);
        if (small > 100)
            ar.reject("small out of range");
    }
};

TEST(Archive, OneFieldListSavesAndLoads)
{
    Sample original{42, 7, true, -2.5, "cg", {1, 2, 3}};
    ByteWriter writer;
    Archive saving(writer);
    original.visit(saving);
    EXPECT_FALSE(saving.loading());

    Sample loaded;
    ByteReader reader(writer.data());
    Archive loading(reader);
    loaded.visit(loading);
    EXPECT_TRUE(loading.loading());
    EXPECT_TRUE(reader.atEnd());
    EXPECT_EQ(loaded.count, 42u);
    EXPECT_EQ(loaded.small, 7u);
    EXPECT_TRUE(loaded.flag);
    EXPECT_EQ(loaded.value, -2.5);
    EXPECT_EQ(loaded.name, "cg");
    EXPECT_EQ(loaded.words, original.words);

    // Re-saving the loaded struct reproduces the bytes.
    ByteWriter rewriter;
    Archive resaving(rewriter);
    loaded.visit(resaving);
    EXPECT_EQ(rewriter.data(), writer.data());
}

TEST(Archive, RejectPoisonsALoadAndKeepsTheReason)
{
    Sample bad;
    bad.small = 500;
    ByteWriter writer;
    Archive saving(writer);
    bad.visit(saving);  // saving never refuses
    EXPECT_TRUE(saving.ok());
    EXPECT_EQ(saving.rejection(), nullptr);

    Sample loaded;
    ByteReader reader(writer.data());
    Archive loading(reader);
    loaded.visit(loading);
    EXPECT_FALSE(loading.ok());
    EXPECT_STREQ(loading.rejection(), "small out of range");

    // A truncated load poisons without a reason.
    ByteReader short_reader(std::string_view(writer.data()).substr(0, 10));
    Archive truncated(short_reader);
    Sample partial;
    partial.visit(truncated);
    EXPECT_FALSE(truncated.ok());
    EXPECT_EQ(truncated.rejection(), nullptr);
}

/* --------------------------- golden image ------------------------ */

TEST(GoldenImage, LoadsTheCapturedStateBackInPlace)
{
    Sample state{42, 7, true, -2.5, "cg", {1, 2, 3}};
    const auto walk = [&state](Archive &ar) { state.visit(ar); };
    const GoldenImage image = GoldenImage::capture(walk);
    state = Sample{1, 2, false, 0.5, "a longer name", {9}};
    image.loadInto(walk);
    EXPECT_EQ(state.count, 42u);
    EXPECT_EQ(state.small, 7u);
    EXPECT_TRUE(state.flag);
    EXPECT_EQ(state.value, -2.5);
    EXPECT_EQ(state.name, "cg");
    EXPECT_EQ(state.words, (std::vector<uint64_t>{1, 2, 3}));
    EXPECT_EQ(GoldenImage::save(walk), *image.bytes);
}

TEST(GoldenImageDeath, ALoadMustConsumeExactlyTheImage)
{
    Sample state{42, 7, true, -2.5, "cg", {1, 2, 3}};
    const auto walk = [&state](Archive &ar) { state.visit(ar); };
    std::string bytes = GoldenImage::save(walk) + '\0';
    const GoldenImage padded{std::make_shared<std::string>(bytes)};
    bytes.resize(bytes.size() - 2);
    const GoldenImage truncated{std::make_shared<std::string>(bytes)};
    EXPECT_EXIT(padded.loadInto(walk), ::testing::ExitedWithCode(1),
                "golden image not fully consumed by load");
    EXPECT_EXIT(truncated.loadInto(walk), ::testing::ExitedWithCode(1),
                "golden image underran during load");
}

/* -------------------------- stream splitter ---------------------- */

TEST(StreamSplitter, PureFunctionOfCoordinate)
{
    EXPECT_EQ(deriveStreamSeed(0x5e5510ULL, 2, 7),
              deriveStreamSeed(0x5e5510ULL, 2, 7));
    // Each coordinate axis matters independently.
    EXPECT_NE(deriveStreamSeed(0x5e5510ULL, 2, 7),
              deriveStreamSeed(0x5e5510ULL, 3, 7));
    EXPECT_NE(deriveStreamSeed(0x5e5510ULL, 2, 7),
              deriveStreamSeed(0x5e5510ULL, 2, 8));
    EXPECT_NE(deriveStreamSeed(0x5e5510ULL, 2, 7),
              deriveStreamSeed(0x5e5511ULL, 2, 7));
    // (session, replicate) = (1, 0) and (0, 1) must not alias -- a
    // plain XOR fold would collide whole stream families here.
    EXPECT_NE(deriveStreamSeed(0x5e5510ULL, 1, 0),
              deriveStreamSeed(0x5e5510ULL, 0, 1));
}

TEST(StreamSplitter, NoCollisionsOver100kStreams)
{
    // 10^5 coordinate tuples -> 10^5 distinct seeds, and distinct
    // two-draw stream prefixes. A birthday collision in 64 bits over
    // 1e5 samples has probability ~3e-10, so any hit is a bug.
    std::set<uint64_t> seeds;
    std::set<std::pair<uint64_t, uint64_t>> prefixes;
    for (uint64_t session = 0; session < 10; ++session) {
        for (uint64_t replicate = 0; replicate < 10000; ++replicate) {
            const uint64_t seed =
                deriveStreamSeed(0x5e5510ULL, session, replicate);
            seeds.insert(seed);
            Rng rng(seed);
            const uint64_t first = rng.nextU64();
            prefixes.insert({first, rng.nextU64()});
        }
    }
    EXPECT_EQ(seeds.size(), 100000u);
    EXPECT_EQ(prefixes.size(), 100000u);
}

TEST(StreamSplitter, GoldenValuesStableAcrossPlatforms)
{
    // Pinned outputs: the derivation is pure 64-bit integer mixing, so
    // these must hold on every platform and compiler. A change here
    // silently reshuffles every replicate of every campaign.
    EXPECT_EQ(deriveStreamSeed(0, 0, 0), 0x8dbeb87049046b82ULL);
    EXPECT_EQ(deriveStreamSeed(0x5e5510ULL, 0, 0),
              0x2963c55a5e1a5bcbULL);
    EXPECT_EQ(deriveStreamSeed(0x5e5510ULL, 1, 0),
              0x0365f3b62bbc04a3ULL);
    EXPECT_EQ(deriveStreamSeed(0x5e5510ULL, 0, 1),
              0x209c1e2a402af63cULL);
    EXPECT_EQ(deriveStreamSeed(0x5e5510ULL, 3, 2),
              0x36757585b73c9ef1ULL);
    EXPECT_EQ(deriveStreamSeed(0xffffffffffffffffULL, 0xffffffffULL,
                               0xffffffffULL),
              0xc117a6b44fe9e075ULL);
}

/* ----------------------------- Logging --------------------------- */

TEST(Logging, MsgComposesStreamables)
{
    EXPECT_EQ(msg("v=", 42, " x", 1.5), "v=42 x1.5");
    EXPECT_EQ(msg(), "");
}

TEST(Logging, LevelGatesEmission)
{
    // emit() below the level is a no-op; above passes. We cannot
    // capture stderr portably here, but the level accessors and the
    // no-crash property are the contract.
    Logger &logger = Logger::global();
    const LogLevel saved = logger.level();
    logger.setLevel(LogLevel::Quiet);
    warn("suppressed");
    inform("suppressed");
    debugLog("suppressed");
    logger.setLevel(saved);
    SUCCEED();
}

/* ---------------------------- SimClock --------------------------- */

TEST(SimClock, PeriodMatchesFrequency)
{
    SimClock clock(2.4e9);
    // 2.4 GHz -> 416.67 ps, stored as integer ticks.
    EXPECT_EQ(clock.period(), 417u);
    SimClock slow(0.9e9);
    EXPECT_EQ(slow.period(), 1111u);
}

TEST(SimClock, AdvanceCycles)
{
    SimClock clock(1e9);  // 1 ns period
    clock.advanceCycles(1000);
    EXPECT_EQ(clock.now(), 1000u * 1000u);
    EXPECT_EQ(clock.cyclesElapsed(), 1000u);
}

TEST(SimClock, FrequencyChangeKeepsTime)
{
    SimClock clock(2.4e9);
    clock.advanceCycles(100);
    const Tick before = clock.now();
    clock.setFrequency(0.9e9);
    EXPECT_EQ(clock.now(), before);
    EXPECT_EQ(clock.frequency(), 0.9e9);
}

TEST(SimClock, TickConversions)
{
    EXPECT_EQ(ticks::fromSeconds(1.0), ticks::perSecond);
    EXPECT_DOUBLE_EQ(ticks::toSeconds(ticks::perSecond), 1.0);
    EXPECT_DOUBLE_EQ(ticks::toMinutes(60 * ticks::perSecond), 1.0);
}

TEST(SimClockDeath, RefusesFrequenciesWithoutAPeriod)
{
    // NaN must not reach periodFromFrequency's integer cast, and a
    // period below one tick would round to zero.
    EXPECT_EXIT(SimClock(std::nan("")), ::testing::ExitedWithCode(1),
                "clock frequency must be positive, got nan");
    EXPECT_EXIT(SimClock(-1.0), ::testing::ExitedWithCode(1),
                "clock frequency must be positive");
    for (const double hz :
         {std::numeric_limits<double>::infinity(), 1e300, 3e12}) {
        SCOPED_TRACE(hz);
        EXPECT_EXIT(SimClock clock(2.4e9); clock.setFrequency(hz),
                    ::testing::ExitedWithCode(1),
                    "Hz has a period below the 1 ps tick resolution");
    }
}

} // namespace
} // namespace xser
