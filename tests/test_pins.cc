/**
 * @file
 * Byte pins: FNV-1a-64 digests of every persisted or transmitted byte
 * format -- service messages, net frames, checkpoint envelopes, .xtrace
 * sections, the campaign config hash, and a memory-hierarchy snapshot.
 *
 * The digests are fixed constants. A refactor of any encoder must leave
 * them unchanged; a deliberate format change bumps the format's version
 * and re-pins here in the same change. Every input is integer-valued or
 * an exactly representable double, and the snapshot sequence has no
 * floating-point input at all, so the pins hold on every compiler.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/beam_campaign.hh"
#include "core/checkpoint.hh"
#include "core/parallel_campaign.hh"
#include "mem/memory_system.hh"
#include "net/frame.hh"
#include "service/protocol.hh"
#include "service_samples.hh"
#include "sim/golden_image.hh"
#include "trace/trace_buffer.hh"
#include "trace/trace_writer.hh"

namespace xser {
namespace {

/** FNV-1a-64 of any contiguous byte container. */
template <class Bytes>
uint64_t
digest(const Bytes &bytes)
{
    return net::fnv1a(reinterpret_cast<const uint8_t *>(bytes.data()),
                      bytes.size());
}

// --------------------------------------------------------------------
// Codec entry points: the only lines here that follow API changes. The
// inputs and digests of the pins below stay fixed.
// --------------------------------------------------------------------

template <class Msg>
std::string
encodeMessage(const Msg &msg)
{
    return service::encode(msg);
}

std::string
snapshotBytes(mem::MemorySystem &memory)
{
    return GoldenImage::save([&](Archive &ar) { memory.visit(ar); });
}

// --------------------------------------------------------------------
// Pins
// --------------------------------------------------------------------

TEST(BytePins, ServiceMessages)
{
    EXPECT_EQ(digest(encodeMessage(
                  service::HelloMsg{service::PeerRole::Worker})),
              0xaf63bc4c8601b62cULL);
    EXPECT_EQ(digest(encodeMessage(samples::sampleSubmit())),
              0x6bc28ed3823d44b6ULL);
    EXPECT_EQ(digest(encodeMessage(service::AcceptedMsg{41, 96})),
              0x6f5aa2939dabd26cULL);
    EXPECT_EQ(digest(encodeMessage(service::AttachMsg{41})),
              0xa24a885016bbfc8cULL);
    EXPECT_EQ(digest(encodeMessage(service::ProgressMsg{41, 17, 96})),
              0xd9ab0c6c23341ffdULL);
    EXPECT_EQ(digest(encodeMessage(samples::sampleShardAssign())),
              0x18572a9ec2f48785ULL);
    EXPECT_EQ(digest(encodeMessage(samples::sampleShardResult())),
              0x43d6be7144e7b242ULL);
    EXPECT_EQ(digest(encodeMessage(
                  service::CampaignDoneMsg{41, false, "worker lost"})),
              0xa4b507e2132ed46dULL);
    EXPECT_EQ(digest(encodeMessage(service::ArtifactChunkMsg{
                  41, service::ArtifactKind::Trace, true,
                  std::string("XTRC\x01\x00", 6)})),
              0x5875d9d50d369a3eULL);
    EXPECT_EQ(digest(encodeMessage(service::ErrorMsgMsg{3, "bad hello"})),
              0x82f2fbe6704a87d6ULL);
    EXPECT_EQ(digest(encodeMessage(samples::sampleMetricShard())),
              0x7258f0a4a50b41b4ULL);
}

TEST(BytePins, NetFrame)
{
    EXPECT_EQ(digest(net::encodeFrame(7, "the quick brown payload")),
              0x9d3bb131e867b1d4ULL);
}

TEST(BytePins, CheckpointEnvelope)
{
    const std::vector<uint8_t> payload = {0xde, 0xad, 0xbe,
                                          0xef, 0x00, 0x42};
    EXPECT_EQ(digest(core::sealCheckpoint(0x1234abcdULL,
                                          {payload.begin(), payload.end()})),
              0xc4f40c2ab63e3c16ULL);
}

TEST(BytePins, TraceHeaderAndUnit)
{
    std::vector<trace::TraceArrayInfo> arrays(2);
    arrays[0].name = "l2.0.data";
    arrays[0].level = 2;
    arrays[0].wordsPerLine = 8;
    arrays[0].associativity = 8;
    arrays[0].words = 32768;
    arrays[1].name = "tlb.0";
    arrays[1].level = 0;
    arrays[1].words = 1064;
    const std::string header = trace::TraceWriter::encodeHeader(
        0x5e5510ULL, 0xfeedfacecafebeefULL, arrays, 1);

    trace::TraceBuffer buffer;
    buffer.info.session = 2;
    buffer.info.replicate = 5;
    buffer.info.pmdMillivolts = 920.0;
    buffer.info.socMillivolts = 950.0;
    buffer.info.frequencyHz = 2.4e9;
    buffer.info.workloads = {"CG", "IS"};
    buffer.record({trace::EventType::Injection, 1000, 0, 4095, 17, 1});
    buffer.record({trace::EventType::EccCorrect, 1000, 0, 4095, 17, 0});
    buffer.record({trace::EventType::ParityDetect, 250000, 1, 12,
                   trace::noBit, 0});
    buffer.record({trace::EventType::OutcomeClassified, 900000000,
                   trace::noArray, 1, 2, 5});
    const std::string unit = trace::TraceWriter::encodeUnit(buffer);

    EXPECT_EQ(digest(header), 0x76540132000a6f30ULL);
    EXPECT_EQ(digest(unit), 0x241d63871be5300aULL);
}

TEST(BytePins, CampaignConfigHash)
{
    EXPECT_EQ(core::campaignConfigHash(
                  core::BeamCampaign::paperCampaign(0.02, 0x5e5510ULL)),
              0xd591300cb4ad420bULL);
}

TEST(BytePins, MemorySystemSnapshot)
{
    // A small hierarchy driven by integer writes, reads, beam-style bit
    // flips in every array kind, and a patrol-scrub step: the snapshot
    // covers corrupt and clean arrays, dirty lines, and DRAM pages.
    mem::MemorySystemConfig config;
    config.numCores = 2;
    config.l1iBytes = 1024;
    config.l1dBytes = 1024;
    config.l2Bytes = 4096;
    config.l3Bytes = 16384;
    config.tlbWordsPerCore = 64;
    mem::EdacReporter reporter;
    mem::MemorySystem memory(config, &reporter);

    const mem::Addr base = memory.allocate(8 * 4096, "pins");
    for (uint64_t i = 0; i < 4096; ++i)
        memory.writeWord(static_cast<unsigned>(i % 2), base + 8 * i,
                         i * 0x9e3779b97f4a7c15ULL);
    memory.l3().dataArray().flipBit(5, 3);
    memory.l3().dataArray().flipBit(9, 64);
    memory.l2(0).dataArray().flipBit(1, 60);
    memory.l1d(1).dataArray().flipBit(2, 7);
    memory.tlb(0).array().flipBit(3, 11);
    memory.l1i(1).array().flipBit(4, 0);
    uint64_t sum = 0;
    for (uint64_t i = 0; i < 4096; i += 3)
        sum += memory.readWord(static_cast<unsigned>(i % 2), base + 8 * i);
    memory.touchTlb(0, 3);
    memory.scrub(4, 8);
    EXPECT_NE(sum, 0u);

    EXPECT_EQ(digest(snapshotBytes(memory)), 0x1a713a6ee3b2192bULL);
}

} // namespace
} // namespace xser
