/**
 * @file
 * Tests for the deterministic fault injector: site addressing, uniform
 * footprint coverage, burst clusters, and bit-exact replay.
 */

#include <gtest/gtest.h>

#include <bit>
#include <map>

#include "inject/fault_injector.hh"
#include "mem/memory_system.hh"

namespace xser::inject {
namespace {

mem::MemorySystemConfig
tinyConfig()
{
    mem::MemorySystemConfig config;
    config.numCores = 2;
    config.l1iBytes = 4 * 1024;
    config.l1dBytes = 4 * 1024;
    config.l1dAssociativity = 2;
    config.l2Bytes = 16 * 1024;
    config.l2Associativity = 4;
    config.l3Bytes = 64 * 1024;
    config.l3Associativity = 8;
    config.tlbWordsPerCore = 64;
    return config;
}

TEST(FaultInjector, FootprintMatchesMemorySystem)
{
    mem::EdacReporter reporter;
    mem::MemorySystem memory(tinyConfig(), &reporter);
    FaultInjector injector(memory.beamTargets(), 1);
    EXPECT_EQ(injector.footprintBits(), memory.totalSramBits());
}

TEST(FaultInjector, TargetedInjectionFlipsExactBit)
{
    mem::EdacReporter reporter;
    mem::MemorySystem memory(tinyConfig(), &reporter);
    FaultInjector injector(memory.beamTargets(), 1);

    FaultSite site;
    site.targetIndex = 0;
    site.word = 3;
    site.bit = 17;
    const uint64_t before =
        injector.targets()[0].array->peek(3);
    injector.inject(site);
    const uint64_t after = injector.targets()[0].array->peek(3);
    EXPECT_EQ(before ^ after, 1ULL << 17);
    EXPECT_EQ(injector.log().size(), 1u);
}

TEST(FaultInjector, RandomInjectionCoversAllTargets)
{
    mem::EdacReporter reporter;
    mem::MemorySystem memory(tinyConfig(), &reporter);
    FaultInjector injector(memory.beamTargets(), 99);
    std::map<size_t, int> hits;
    for (int i = 0; i < 5000; ++i)
        ++hits[injector.injectRandom().targetIndex];
    // Every array gets struck; the big L3 dominates in proportion to
    // its bit count.
    EXPECT_EQ(hits.size(), injector.targets().size());
    size_t l3_index = 0;
    uint64_t l3_bits = 0;
    for (size_t t = 0; t < injector.targets().size(); ++t) {
        if (injector.targets()[t].array->totalBits() > l3_bits) {
            l3_bits = injector.targets()[t].array->totalBits();
            l3_index = t;
        }
    }
    const double l3_share =
        static_cast<double>(hits[l3_index]) / 5000.0;
    const double l3_bit_share =
        static_cast<double>(l3_bits) /
        static_cast<double>(injector.footprintBits());
    EXPECT_NEAR(l3_share, l3_bit_share, 0.05);
}

TEST(FaultInjector, BurstStaysWithinOneWord)
{
    mem::EdacReporter reporter;
    mem::MemorySystem memory(tinyConfig(), &reporter);
    FaultInjector injector(memory.beamTargets(), 5);
    const FaultSite first = injector.injectRandomBurst(3);
    const auto &array = *injector.targets()[first.targetIndex].array;
    EXPECT_TRUE(array.isCorrupted(first.word));
    EXPECT_EQ(injector.log().size(), 3u);
    for (const auto &site : injector.log())
        EXPECT_EQ(site.word, first.word);
}

TEST(FaultInjectorDeath, BurstWiderThanItsWordIsRefused)
{
    // Every array here stores 65 (parity) or 72 (SECDED) bits a word;
    // a 73-bit burst would wrap and flip a bit back.
    mem::EdacReporter reporter;
    mem::MemorySystem memory(tinyConfig(), &reporter);
    FaultInjector injector(memory.beamTargets(), 5);
    EXPECT_DEATH(injector.injectRandomBurst(73), "burst wider than its word");
}

TEST(FaultInjector, ReplayReproducesState)
{
    mem::EdacReporter reporter1;
    mem::MemorySystem memory1(tinyConfig(), &reporter1);
    FaultInjector injector1(memory1.beamTargets(), 123);
    for (int i = 0; i < 200; ++i)
        injector1.injectRandom();

    mem::EdacReporter reporter2;
    mem::MemorySystem memory2(tinyConfig(), &reporter2);
    FaultInjector injector2(memory2.beamTargets(), 456);  // seed unused
    injector2.replay(injector1.log());

    const auto targets1 = memory1.beamTargets();
    const auto targets2 = memory2.beamTargets();
    for (size_t t = 0; t < targets1.size(); ++t) {
        for (size_t w = 0; w < targets1[t].array->words(); ++w) {
            ASSERT_EQ(targets1[t].array->peek(w),
                      targets2[t].array->peek(w));
        }
    }
}

TEST(FaultInjector, DescribeSiteNamesArray)
{
    mem::EdacReporter reporter;
    mem::MemorySystem memory(tinyConfig(), &reporter);
    const auto targets = memory.beamTargets();
    FaultSite site;
    site.targetIndex = 0;
    site.word = 2;
    site.bit = 9;
    const std::string text = describeSite(targets, site);
    EXPECT_NE(text.find(targets[0].array->name()), std::string::npos);
    EXPECT_NE(text.find("[2]"), std::string::npos);
}

TEST(FaultInjector, InjectedUpsetVisibleToEccOnRead)
{
    // End-to-end: inject into a resident L2 word, then read through
    // the hierarchy and observe the corrected event -- the
    // microarchitectural fault-injection flow of Design Implication #3.
    mem::EdacReporter reporter;
    mem::MemorySystem memory(tinyConfig(), &reporter);
    const mem::Addr addr = memory.allocate(64, "t");
    memory.writeWord(0, addr, 0x42ULL);

    auto targets = memory.beamTargets();
    FaultInjector injector(targets, 7);
    bool placed = false;
    for (size_t t = 0; t < targets.size() && !placed; ++t) {
        if (targets[t].level != mem::CacheLevel::L2)
            continue;
        for (size_t w = 0; w < targets[t].array->words(); ++w) {
            if (targets[t].array->truth(w) == 0x42ULL) {
                FaultSite site;
                site.targetIndex = t;
                site.word = w;
                site.bit = 4;
                injector.inject(site);
                placed = true;
                break;
            }
        }
    }
    ASSERT_TRUE(placed);
    memory.l1d(0).invalidate(addr);
    EXPECT_EQ(memory.readWord(0, addr), 0x42ULL);
    EXPECT_EQ(reporter.tally(mem::CacheLevel::L2).corrected, 1u);
}

} // namespace
} // namespace xser::inject
