/**
 * @file
 * Tests for the platform assembly: operating-point application, time
 * accounting, front-end touch processes, footprint clamping, and the
 * Table 1 spec dump.
 */

#include <gtest/gtest.h>

#include "cpu/core.hh"
#include "cpu/xgene2_platform.hh"
#include "sim/golden_image.hh"
#include "volt/operating_point.hh"

namespace xser::cpu {
namespace {

TEST(Platform, DefaultsMatchTable1)
{
    XGene2Platform platform;
    EXPECT_EQ(platform.numCores(), 8u);
    EXPECT_EQ(platform.pmdDomain().millivolts(), 980.0);
    EXPECT_EQ(platform.socDomain().millivolts(), 950.0);
    EXPECT_EQ(platform.clock().frequency(), 2.4e9);
    const std::string spec = platform.specTable();
    for (const char *needle :
         {"Armv8", "256 KB", "8 MB", "SECDED", "Parity", "28 nm"}) {
        EXPECT_NE(spec.find(needle), std::string::npos) << needle;
    }
}

TEST(Platform, OperatingPointRoundTrip)
{
    XGene2Platform platform;
    platform.applyOperatingPoint(volt::vmin900Point());
    EXPECT_EQ(platform.pmdDomain().millivolts(), 790.0);
    EXPECT_EQ(platform.socDomain().millivolts(), 950.0);
    EXPECT_EQ(platform.clock().frequency(), 0.9e9);
    const volt::OperatingPoint point = platform.operatingPoint();
    EXPECT_EQ(point.pmdMillivolts, 790.0);
    EXPECT_EQ(point.label(), "790mV @ 900MHz");
}

TEST(Platform, AdvanceForCyclesDividesAcrossCores)
{
    XGene2Platform platform;
    const Tick before = platform.clock().now();
    const Tick elapsed = platform.advanceForCycles(8000);
    // 8000 cycles over 8 cores = 1000 cycles of wall time.
    EXPECT_EQ(elapsed, 1000 * platform.clock().period());
    EXPECT_EQ(platform.clock().now() - before, elapsed);
}

TEST(Platform, PowerTracksOperatingPoint)
{
    XGene2Platform platform;
    const double nominal = platform.currentPowerWatts();
    platform.applyOperatingPoint(volt::vminPoint());
    EXPECT_LT(platform.currentPowerWatts(), nominal);
    platform.applyOperatingPoint(volt::vmin900Point());
    EXPECT_LT(platform.currentPowerWatts(), 0.6 * nominal);
}

TEST(Platform, DistinctChipSeedsGiveDistinctVariation)
{
    PlatformConfig a;
    a.chipSeed = 1;
    PlatformConfig b;
    b.chipSeed = 2;
    XGene2Platform chip_a(a);
    XGene2Platform chip_b(b);
    bool different = false;
    for (unsigned core = 0; core < 8; ++core) {
        different |= chip_a.variation().coreOffsetVolts(core) !=
                     chip_b.variation().coreOffsetVolts(core);
    }
    EXPECT_TRUE(different);
}

TEST(Platform, LoadingThroughTheWalkEmptiesTheEdacReporter)
{
    // The EDAC reporter is the only platform state off the visit()
    // walk, and a loaded state carries no detection log: loading
    // clears it, whatever CE and UE events came before.
    XGene2Platform platform;
    mem::MemorySystem &memory = platform.memory();
    const size_t bytes = 64 * 1024;
    const mem::Addr base = memory.allocate(bytes, "lines");
    for (mem::Addr addr = base; addr < base + bytes; addr += 8)
        memory.writeWord(0, addr, addr);
    const auto walk = [&platform](Archive &ar) { platform.visit(ar); };
    const GoldenImage image = GoldenImage::capture(walk);

    // Single flips in the even words of core 0's L2 (CE) and double
    // flips in the odd ones (UE), found by the patrol scrub.
    mem::SramArray &array = memory.l2(0).dataArray();
    for (size_t word = 0; word < array.words(); ++word) {
        array.flipBit(word, 0);
        if (word % 2 == 1)
            array.flipBit(word, 1);
    }
    memory.scrub(array.words(), 0);
    ASSERT_GT(platform.edac().totalCorrected(), 0u);
    ASSERT_GT(platform.edac().totalUncorrected(), 0u);

    image.loadInto(walk);
    EXPECT_EQ(platform.edac().totalUpsets(), 0u);
    EXPECT_TRUE(GoldenImage::save(walk) == *image.bytes);
}

TEST(Core, TouchesStayWithinFootprint)
{
    XGene2Platform platform;
    platform.setWorkloadFootprint(64, 32);
    // Drive a lot of front-end activity, then flip a bit far outside
    // the footprint: it must never be repaired by touches.
    auto &l1i = platform.memory().l1i(0);
    const size_t outside = l1i.words() - 1;
    l1i.array().flipBit(outside, 3);
    for (int quantum = 0; quantum < 200; ++quantum)
        platform.driveFrontEnd(512);
    EXPECT_TRUE(l1i.array().isCorrupted(outside));
}

TEST(Core, TouchRateProducesActivity)
{
    XGene2Platform platform;
    platform.setWorkloadFootprint(512, 256);
    // Flip bits inside every core's footprint; sustained touching must
    // eventually repair or replace them (either way: decorrupt).
    for (unsigned core = 0; core < 8; ++core)
        platform.memory().l1i(core).array().flipBit(17, 5);
    for (int quantum = 0; quantum < 400; ++quantum)
        platform.driveFrontEnd(512);
    unsigned still_corrupted = 0;
    for (unsigned core = 0; core < 8; ++core) {
        still_corrupted +=
            platform.memory().l1i(core).array().isCorrupted(17) ? 1 : 0;
    }
    EXPECT_LT(still_corrupted, 3u);  // ~51k touches over 512 words
}

TEST(Core, FootprintClampedToArraySize)
{
    XGene2Platform platform;
    // Requesting absurd footprints must not crash or touch out of
    // range (touch indices are clamped internally).
    platform.setWorkloadFootprint(1u << 30, 1u << 30);
    platform.driveFrontEnd(4096);
    SUCCEED();
}

TEST(Core, ReplacementsDestroyFlipsSilently)
{
    XGene2Platform platform;
    auto &edac = platform.edac();
    CoreConfig config;
    config.id = 0;
    config.ifetchTouchesPerAccess = 1.0;
    config.ifetchReplaceFraction = 1.0;  // replacements only
    config.tlbTouchesPerAccess = 0.0;
    Core core(config, &platform.memory(), Rng(5));
    core.setFootprint(64, 1);
    platform.memory().l1i(0).array().flipBit(7, 1);
    for (int quantum = 0; quantum < 100; ++quantum)
        core.driveQuantum(64);
    // The flip is gone (overwritten) but no corrected event was ever
    // reported -- the silent-destruction channel.
    EXPECT_FALSE(platform.memory().l1i(0).array().isCorrupted(7));
    EXPECT_EQ(edac.tally(mem::CacheLevel::L1).corrected, 0u);
}

} // namespace
} // namespace xser::cpu
