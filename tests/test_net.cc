/**
 * @file
 * Protocol robustness tests for the net frame codec and the service
 * message layer (DESIGN.md section 12).
 *
 * The posture under test is the .xtrace reader's: any malformed
 * byte stream -- truncations, bit flips, garbage, hostile size fields
 * -- must yield a clean, descriptive error, never a crash, hang, or
 * silent misparse. The sweeps below exercise every prefix length and
 * every flipped bit of real encoded messages.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel_campaign.hh"
#include "net/frame.hh"
#include "net/socket.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "service_samples.hh"
#include "telemetry/metrics.hh"

namespace xser {
namespace {

using net::FrameReader;

std::string
sampleFrame()
{
    return net::encodeFrame(7, "the quick brown payload");
}

// --------------------------------------------------------------------
// Frame envelope
// --------------------------------------------------------------------

TEST(FrameCodec, RoundTripsTypeAndPayload)
{
    const std::string bytes = net::encodeFrame(42, "abc");
    const net::FrameView view = net::decodeFrame(
        reinterpret_cast<const uint8_t *>(bytes.data()), bytes.size());
    ASSERT_TRUE(view.ok);
    EXPECT_EQ(view.type, 42u);
    EXPECT_EQ(std::string(reinterpret_cast<const char *>(view.payload),
                          view.payloadSize),
              "abc");
    EXPECT_EQ(view.frameSize, bytes.size());
}

TEST(FrameCodec, EmptyPayloadRoundTrips)
{
    const std::string bytes = net::encodeFrame(1, "");
    const net::FrameView view = net::decodeFrame(
        reinterpret_cast<const uint8_t *>(bytes.data()), bytes.size());
    ASSERT_TRUE(view.ok);
    EXPECT_EQ(view.payloadSize, 0u);
}

TEST(FrameCodec, EveryPrefixIsIncompleteNotError)
{
    const std::string bytes = sampleFrame();
    for (size_t len = 0; len < bytes.size(); ++len) {
        const net::FrameView view = net::decodeFrame(
            reinterpret_cast<const uint8_t *>(bytes.data()), len);
        EXPECT_FALSE(view.ok) << "prefix " << len;
        EXPECT_TRUE(view.incomplete) << "prefix " << len;
        EXPECT_FALSE(view.error.empty()) << "prefix " << len;
    }
}

TEST(FrameCodec, EveryBitFlipIsDetectedOrHarmless)
{
    // Flipping any single bit must never crash and must never yield a
    // successfully decoded frame with the original type AND payload:
    // the magic guards bytes 0-7, the version check 8-11, the checksum
    // guards the payload, and a size-field flip either trips the cap
    // or reads as a (harmless) still-incomplete frame. Only the type
    // field is deliberately unauthenticated -- the application layer
    // rejects unknown types -- so a type flip may decode, but with a
    // different type.
    const std::string bytes = sampleFrame();
    const net::FrameView good = net::decodeFrame(
        reinterpret_cast<const uint8_t *>(bytes.data()), bytes.size());
    ASSERT_TRUE(good.ok);
    for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
        std::string flipped = bytes;
        flipped[bit / 8] =
            static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
        const net::FrameView view = net::decodeFrame(
            reinterpret_cast<const uint8_t *>(flipped.data()),
            flipped.size());
        if (!view.ok) {
            EXPECT_FALSE(view.error.empty()) << "bit " << bit;
            continue;
        }
        const bool type_changed = view.type != good.type;
        EXPECT_TRUE(type_changed) << "bit " << bit;
    }
}

TEST(FrameCodec, HostileSizeFieldTripsTheCap)
{
    std::string bytes = sampleFrame();
    // Overwrite the payload-size field (bytes 16..23) with a size just
    // past the protocol cap.
    const uint64_t hostile = net::maxFramePayloadBytes + 1;
    for (unsigned i = 0; i < 8; ++i)
        bytes[16 + i] =
            static_cast<char>((hostile >> (8 * i)) & 0xff);
    const net::FrameView view = net::decodeFrame(
        reinterpret_cast<const uint8_t *>(bytes.data()), bytes.size());
    EXPECT_FALSE(view.ok);
    EXPECT_FALSE(view.incomplete); // hard error, not "wait for more"
    EXPECT_NE(view.error.find("exceeds"), std::string::npos);
}

TEST(FrameReaderTest, ReassemblesOneByteAtATime)
{
    const std::string bytes = sampleFrame() + net::encodeFrame(9, "x");
    FrameReader reader;
    std::vector<net::Frame> frames;
    for (char byte : bytes) {
        reader.feed(&byte, 1);
        net::Frame frame;
        while (reader.next(frame) == FrameReader::Status::Ready)
            frames.push_back(frame);
    }
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].type, 7u);
    EXPECT_EQ(frames[0].payload, "the quick brown payload");
    EXPECT_EQ(frames[1].type, 9u);
    EXPECT_EQ(frames[1].payload, "x");
    EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameReaderTest, GarbageMakesTheStreamStickyFailed)
{
    FrameReader reader;
    const std::string garbage = "GET / HTTP/1.1\r\n\r\n"
                                "definitely not an xser stream";
    reader.feed(garbage.data(), garbage.size());
    net::Frame frame;
    EXPECT_EQ(reader.next(frame), FrameReader::Status::Error);
    EXPECT_FALSE(reader.error().empty());
    // Feeding a perfectly valid frame afterwards must not resurrect
    // the stream: framing is lost for good once desynchronized.
    const std::string good = sampleFrame();
    reader.feed(good.data(), good.size());
    EXPECT_EQ(reader.next(frame), FrameReader::Status::Error);
}

// --------------------------------------------------------------------
// Service message codecs
// --------------------------------------------------------------------

using samples::sampleParams;
using samples::sampleShardResult;

TEST(ServiceCodec, ShardResultRoundTrips)
{
    const service::ShardResultMsg original = sampleShardResult();
    const std::string payload = service::encode(original);
    service::ShardResultMsg decoded;
    std::string error;
    ASSERT_TRUE(service::decode(payload, decoded, error)) << error;
    EXPECT_EQ(decoded.campaignId, original.campaignId);
    EXPECT_EQ(decoded.session, original.session);
    EXPECT_EQ(decoded.replicate, original.replicate);
    EXPECT_EQ(decoded.prefixTelemetry, original.prefixTelemetry);
    EXPECT_EQ(decoded.shardTelemetry, original.shardTelemetry);
    EXPECT_EQ(decoded.unit.traceEventCount, original.unit.traceEventCount);
    EXPECT_EQ(decoded.unit.traceBytes, original.unit.traceBytes);
    const core::SessionResult &a = decoded.unit.result;
    const core::SessionResult &b = original.unit.result;
    EXPECT_EQ(a.point.name, b.point.name);
    EXPECT_EQ(a.point.pmdMillivolts, b.point.pmdMillivolts);
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.fluence, b.fluence);
    EXPECT_EQ(a.duration, b.duration);
    EXPECT_EQ(a.events.total(), b.events.total());
    EXPECT_EQ(a.edac[0].corrected, b.edac[0].corrected);
    EXPECT_EQ(a.upsetsDetected, b.upsetsDetected);
    EXPECT_EQ(a.avgPowerWatts, b.avgPowerWatts);
    ASSERT_EQ(a.perWorkload.size(), b.perWorkload.size());
    EXPECT_EQ(a.perWorkload[0].name, b.perWorkload[0].name);
    EXPECT_EQ(a.perWorkload[0].upsetsDetected,
              b.perWorkload[0].upsetsDetected);
}

TEST(ServiceCodec, EveryShardResultTruncationFailsCleanly)
{
    const std::string payload = service::encode(sampleShardResult());
    for (size_t len = 0; len < payload.size(); ++len) {
        service::ShardResultMsg decoded;
        std::string error;
        EXPECT_FALSE(service::decode(payload.substr(0, len), decoded, error))
            << "prefix " << len << " decoded successfully";
        EXPECT_FALSE(error.empty()) << "prefix " << len;
    }
}

TEST(ServiceCodec, EverySubmitTruncationFailsCleanly)
{
    service::SubmitMsg submit;
    submit.params = sampleParams();
    submit.tracePath = "out/campaign.xtrace";
    const std::string payload = service::encode(submit);
    for (size_t len = 0; len < payload.size(); ++len) {
        service::SubmitMsg decoded;
        std::string error;
        EXPECT_FALSE(service::decode(payload.substr(0, len), decoded, error))
            << "prefix " << len;
    }
    service::SubmitMsg decoded;
    std::string error;
    ASSERT_TRUE(service::decode(payload, decoded, error)) << error;
    EXPECT_EQ(decoded.params.seed, submit.params.seed);
    EXPECT_EQ(decoded.params.replicates, submit.params.replicates);
    EXPECT_EQ(decoded.tracePath, submit.tracePath);
}

TEST(ServiceCodec, EveryShardAssignBitFlipNeverCrashes)
{
    service::ShardAssignMsg assign;
    assign.campaignId = 5;
    assign.params = sampleParams();
    assign.session = 1;
    assign.replicate = 2;
    const std::string payload = service::encode(assign);
    for (size_t bit = 0; bit < payload.size() * 8; ++bit) {
        std::string flipped = payload;
        flipped[bit / 8] =
            static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
        service::ShardAssignMsg decoded;
        std::string error;
        // Either outcome is fine -- a flipped coordinate can still be
        // a well-formed message -- the requirement is no crash and a
        // nonempty error whenever the decode refuses.
        if (!service::decode(flipped, decoded, error)) {
            EXPECT_FALSE(error.empty()) << "bit " << bit;
        }
    }
}

TEST(ServiceCodec, RejectsDegenerateCoordinates)
{
    service::SubmitMsg zero_reps;
    zero_reps.params = sampleParams();
    zero_reps.params.replicates = 0;
    service::SubmitMsg decoded;
    std::string error;
    EXPECT_FALSE(
        service::decode(service::encode(zero_reps), decoded, error));
    EXPECT_FALSE(error.empty());

    service::ShardAssignMsg past_end;
    past_end.params = sampleParams();
    past_end.replicate = past_end.params.replicates;
    service::ShardAssignMsg assign_out;
    error.clear();
    EXPECT_FALSE(service::decode(service::encode(past_end), assign_out,
                                 error));
    EXPECT_NE(error.find("replicate out of range"), std::string::npos)
        << error;

    // Parameters no campaign can be built from: a scale that is zero,
    // NaN, negative, infinite, or big enough to overflow the event
    // targets; more replicates than any client may ask for (even with
    // a matching config hash, which leaves out the replicate count);
    // and a trace request with no room for a single event. Submit and
    // ShardAssign both refuse them at decode.
    std::vector<core::CampaignParams> bad;
    for (double scale : {0.0, std::nan(""), -0.5,
                         std::numeric_limits<double>::infinity(),
                         core::maxCampaignScale * 2}) {
        bad.push_back(sampleParams());
        bad.back().scale = scale;
    }
    for (uint32_t replicates :
         {core::maxCampaignReplicates + 1, uint32_t(0xffffffff)}) {
        bad.push_back(sampleParams());
        bad.back().replicates = replicates;
        bad.back().configHash = core::campaignConfigHash(
            core::buildCampaign(bad.back()));
    }
    bad.push_back(sampleParams());
    bad.back().traceBufferEvents = 0;
    for (const core::CampaignParams &params : bad) {
        SCOPED_TRACE(testing::Message()
                     << "scale " << params.scale << " replicates "
                     << params.replicates << " trace buffer "
                     << params.traceBufferEvents);
        service::SubmitMsg submit;
        submit.params = params;
        error.clear();
        EXPECT_FALSE(
            service::decode(service::encode(submit), decoded, error));
        EXPECT_NE(error.find("submit: "), std::string::npos) << error;

        service::ShardAssignMsg assign;
        assign.params = params;
        error.clear();
        EXPECT_FALSE(
            service::decode(service::encode(assign), assign_out, error));
        EXPECT_NE(error.find("shard assign: "), std::string::npos)
            << error;
    }

    // The bounds themselves are valid campaigns.
    service::SubmitMsg edge;
    edge.params = sampleParams();
    edge.params.scale = core::maxCampaignScale;
    edge.params.replicates = core::maxCampaignReplicates;
    error.clear();
    EXPECT_TRUE(service::decode(service::encode(edge), decoded, error))
        << error;
}

TEST(ServiceCodec, GarbageNeverDecodes)
{
    // 256 deterministic pseudo-random payloads; none may crash and
    // none may parse as a ShardResult (the odds of a valid count
    // structure arising by chance are nil).
    uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (int trial = 0; trial < 256; ++trial) {
        std::string junk;
        const size_t size = (state >> 17) % 512;
        for (size_t i = 0; i < size; ++i) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            junk.push_back(static_cast<char>(state & 0xff));
        }
        service::ShardResultMsg decoded;
        std::string error;
        EXPECT_FALSE(service::decode(junk, decoded, error));
        state += 0x9e3779b97f4a7c15ULL;
    }
}

// --------------------------------------------------------------------
// Telemetry shard transfer
// --------------------------------------------------------------------

TEST(ServiceCodec, MetricShardRoundTripsExactly)
{
    telemetry::MetricShard shard;
    shard.counters[0] = 101;
    shard.counters[telemetry::numCounters - 1] = 7;
    // Populate every distribution, including out-of-range samples so
    // the underflow/overflow transfer is exercised.
    for (size_t d = 0; d < telemetry::numDists; ++d) {
        Histogram &hist = shard.dists[d];
        hist.add(hist.low(), 3);
        hist.add(hist.low() - 1e9, 2);  // underflow
        hist.add(hist.high() + 1e9, 1); // overflow
    }
    shard.phaseSeconds[0] = 1.25;
    shard.unitsExecuted = 9;

    const std::string blob = service::encode(shard);
    telemetry::MetricShard decoded;
    std::string error;
    ASSERT_TRUE(service::decode(blob, decoded, error)) << error;
    EXPECT_EQ(decoded.counters, shard.counters);
    EXPECT_EQ(decoded.phaseSeconds, shard.phaseSeconds);
    EXPECT_EQ(decoded.unitsExecuted, shard.unitsExecuted);
    ASSERT_EQ(decoded.dists.size(), shard.dists.size());
    for (size_t d = 0; d < shard.dists.size(); ++d) {
        const Histogram &a = decoded.dists[d];
        const Histogram &b = shard.dists[d];
        ASSERT_EQ(a.bins(), b.bins());
        EXPECT_EQ(a.underflow(), b.underflow());
        EXPECT_EQ(a.overflow(), b.overflow());
        EXPECT_EQ(a.total(), b.total());
        for (size_t bin = 0; bin < a.bins(); ++bin)
            EXPECT_EQ(a.binCount(bin), b.binCount(bin));
    }
}

TEST(ServiceCodec, EveryMetricShardTruncationFailsCleanly)
{
    telemetry::MetricShard shard;
    shard.counters[1] = 42;
    shard.dists[0].add(shard.dists[0].low(), 5);
    const std::string blob = service::encode(shard);
    for (size_t len = 0; len < blob.size(); ++len) {
        telemetry::MetricShard decoded;
        std::string error;
        EXPECT_FALSE(service::decode(blob.substr(0, len), decoded, error))
            << "prefix " << len;
    }
}

// --------------------------------------------------------------------
// Server robustness
// --------------------------------------------------------------------

/** A blocking frame-level peer of an in-process xser-server. */
class TestPeer
{
  public:
    explicit TestPeer(uint16_t port)
    {
        std::string error;
        conn_ = net::connectTo("127.0.0.1", port, error);
        EXPECT_TRUE(conn_.open()) << error;
    }

    void
    send(service::FrameType type, const std::string &payload)
    {
        outbox_ += net::encodeFrame(static_cast<uint32_t>(type), payload);
    }

    /** Flush, then wait up to 10 s for one frame; false otherwise. */
    bool
    next(net::Frame &frame)
    {
        for (int wait = 0; wait < 100; ++wait) {
            if (reader_.next(frame) == FrameReader::Status::Ready)
                return true;
            std::vector<net::PollItem> items(1);
            items[0].fd = conn_.fd();
            items[0].wantRead = true;
            items[0].wantWrite = !outbox_.empty();
            net::pollSockets(items, 100);
            if (items[0].canWrite)
                conn_.writeSome(outbox_);
            std::string bytes;
            if (items[0].canRead &&
                conn_.readSome(bytes) == net::ReadStatus::Data)
                reader_.feed(bytes.data(), bytes.size());
        }
        return false;
    }

    /** Say hello as a client and expect the server's acceptance. */
    void
    hello()
    {
        send(service::FrameType::Hello,
             service::encode(service::HelloMsg{service::PeerRole::Client}));
        net::Frame frame;
        ASSERT_TRUE(next(frame));
        EXPECT_EQ(frame.type,
                  static_cast<uint32_t>(service::FrameType::HelloAck));
    }

  private:
    net::TcpConnection conn_;
    FrameReader reader_;
    std::string outbox_;
};

/**
 * runServer() on a thread of this process. However the test ends, the
 * destructor asks the server to drain with a ShutdownRequest -- so
 * only the server's own thread ever sets its shutdown flag -- and
 * joins it.
 */
class ServerThread
{
  public:
    ServerThread()
    {
        config_.portFile = testing::TempDir() + "xser-server-test.port";
        std::remove(config_.portFile.c_str());
        service::serverShutdownFlag = 0;
        thread_ = std::thread([this] { service::runServer(config_); });
        for (int wait = 0; wait < 200 && port_ == 0; ++wait) {
            std::ifstream in(config_.portFile);
            if (!(in >> port_))
                std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
    }

    ~ServerThread()
    {
        TestPeer peer(port_);
        peer.send(service::FrameType::Hello,
                  service::encode(
                      service::HelloMsg{service::PeerRole::Client}));
        peer.send(service::FrameType::ShutdownRequest, "");
        net::Frame frame;
        while (peer.next(frame) &&
               frame.type != static_cast<uint32_t>(
                                 service::FrameType::ShutdownAck)) {
        }
        thread_.join();
    }

    ServerThread(const ServerThread &) = delete;
    ServerThread &operator=(const ServerThread &) = delete;

    uint16_t port() const { return port_; }

  private:
    service::ServerConfig config_;
    uint16_t port_ = 0;
    std::thread thread_;
};

TEST(ServiceServer, RefusesDegenerateSubmitsAndKeepsServing)
{
    const ServerThread server;
    const uint16_t port = server.port();
    ASSERT_NE(port, 0u);

    // Each of these must be refused without taking the server down:
    // scale 0 and NaN fail paperCampaign's precondition, and 2^32 - 1
    // replicates -- with a matching config hash, since the hash leaves
    // the replicate count out -- would size the unit table past any
    // memory.
    std::vector<service::SubmitMsg> crafted(3);
    for (service::SubmitMsg &submit : crafted)
        submit.params = sampleParams();
    crafted[0].params.scale = 0.0;
    crafted[1].params.scale = std::nan("");
    crafted[2].params.replicates = 0xffffffffu;
    crafted[2].params.configHash =
        core::campaignConfigHash(core::buildCampaign(crafted[2].params));
    for (const service::SubmitMsg &submit : crafted) {
        TestPeer peer(port);
        peer.hello();
        peer.send(service::FrameType::Submit, service::encode(submit));
        net::Frame frame;
        ASSERT_TRUE(peer.next(frame));
        ASSERT_EQ(frame.type,
                  static_cast<uint32_t>(service::FrameType::ErrorMsg));
        service::ErrorMsgMsg refusal;
        std::string error;
        ASSERT_TRUE(service::decode(frame.payload, refusal, error));
        EXPECT_NE(refusal.text.find("submit: "), std::string::npos)
            << refusal.text;
    }

    // The server is still up and accepts the next, valid campaign.
    service::SubmitMsg valid;
    valid.params = sampleParams();
    valid.params.configHash =
        core::campaignConfigHash(core::buildCampaign(valid.params));
    TestPeer client(port);
    client.hello();
    client.send(service::FrameType::Submit, service::encode(valid));
    net::Frame frame;
    ASSERT_TRUE(client.next(frame));
    ASSERT_EQ(frame.type,
              static_cast<uint32_t>(service::FrameType::Accepted));
    service::AcceptedMsg accepted;
    std::string error;
    ASSERT_TRUE(service::decode(frame.payload, accepted, error));
    EXPECT_EQ(accepted.totalUnits, 4u * valid.params.replicates);
}

} // namespace
} // namespace xser
