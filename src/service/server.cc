/**
 * @file
 * xser-server event loop implementation.
 */

#include "service/server.hh"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/campaign_report.hh"
#include "core/parallel_campaign.hh"
#include "core/report_export.hh"
#include "core/run_manifest.hh"
#include "net/frame.hh"
#include "net/socket.hh"
#include "service/protocol.hh"
#include "sim/logging.hh"
#include "telemetry/metrics.hh"
#include "telemetry/stopwatch.hh"

namespace xser::service {

volatile std::sig_atomic_t serverShutdownFlag = 0;

namespace {

/** Bytes of one ArtifactChunk payload. */
constexpr size_t artifactChunkBytes = size_t(64) * 1024;

/** Stop enqueueing artifact chunks while an outbox holds this much. */
constexpr size_t outboxHighWater = size_t(256) * 1024;

/** One queued (session, replicate) unit. */
struct PendingShard {
    uint32_t session = 0;
    uint32_t replicate = 0;
};

/** One campaign's full server-side state. */
struct Campaign {
    uint64_t id = 0;
    CampaignParams params;
    std::string tracePath;
    core::CampaignConfig config;
    size_t numSessions = 0;

    std::deque<PendingShard> pending;
    std::vector<core::UnitOutcome> units; ///< replicate-major
    std::vector<bool> unitDone;
    size_t unitsDone = 0;
    /** Whether a prefix telemetry blob has been absorbed. */
    bool prefixTelemetrySeen = false;
    /** Single-sharded sink for decoded worker telemetry + merges. */
    std::unique_ptr<telemetry::MetricRegistry> registry;
    std::set<uint64_t> workersSeen;
    telemetry::Stopwatch elapsed;

    bool finished = false;
    bool failed = false;
    std::string failure;
    std::string report;
    std::string traceFile;
    std::string manifest;
};

/** One connected peer. */
struct Connection {
    uint64_t id = 0;
    net::TcpConnection conn;
    net::FrameReader reader;
    std::string outbox;
    enum class Kind { Pending, Client, Worker };
    Kind kind = Kind::Pending;
    uint64_t connectedNanos = 0;
    uint64_t lastSeenNanos = 0;
    bool dead = false;

    /* Worker state. */
    bool busy = false;
    uint64_t shardCampaign = 0;
    PendingShard shard;

    /* Client state. */
    uint64_t watching = 0;
    std::deque<ArtifactKind> artifactQueue;
    size_t artifactOffset = 0;
    bool doneQueued = false;
};

class Server
{
  public:
    explicit Server(const ServerConfig &config) : config_(config) {}

    int
    run()
    {
        listener_ =
            net::TcpListener::listen(config_.host, config_.port);
        if (!config_.portFile.empty())
            core::writeFile(config_.portFile,
                            std::to_string(listener_.boundPort()) +
                                "\n");
        inform(msg("xser-server listening on ", config_.host, ":",
                   listener_.boundPort()));

        while (!exitReady()) {
            if (serverShutdownFlag != 0 && !draining_)
                beginDrain();
            pollOnce();
            assignWork();
            fillArtifacts();
            reapConnections();
            enforceTimeouts();
            if (draining_)
                drainStep();
        }
        return 0;
    }

  private:
    void
    pollOnce()
    {
        std::vector<net::PollItem> items;
        std::vector<Connection *> owners;
        if (listener_.open()) {
            net::PollItem item;
            item.fd = listener_.fd();
            item.wantRead = true;
            items.push_back(item);
            owners.push_back(nullptr);
        }
        for (auto &entry : connections_) {
            Connection &connection = *entry.second;
            if (connection.dead)
                continue;
            net::PollItem item;
            item.fd = connection.conn.fd();
            item.wantRead = true;
            item.wantWrite = !connection.outbox.empty();
            items.push_back(item);
            owners.push_back(&connection);
        }
        net::pollSockets(items, 200);
        for (size_t i = 0; i < items.size(); ++i) {
            if (owners[i] == nullptr) {
                if (items[i].canRead)
                    acceptPending();
                continue;
            }
            Connection &connection = *owners[i];
            if (items[i].canRead)
                readFrom(connection);
            if (!connection.dead && items[i].canWrite &&
                !connection.outbox.empty()) {
                if (connection.conn.writeSome(connection.outbox) ==
                    net::WriteStatus::Error)
                    connection.dead = true;
            }
            if (items[i].hangup && connection.outbox.empty())
                connection.dead = true;
        }
    }

    void
    acceptPending()
    {
        for (;;) {
            net::TcpConnection accepted = listener_.accept();
            if (!accepted.open())
                return;
            auto connection = std::make_unique<Connection>();
            connection->id = nextConnectionId_++;
            connection->conn = std::move(accepted);
            connection->connectedNanos = telemetry::monotonicNanos();
            connection->lastSeenNanos = connection->connectedNanos;
            connections_.emplace(connection->id,
                                 std::move(connection));
        }
    }

    void
    readFrom(Connection &connection)
    {
        std::string bytes;
        const net::ReadStatus status = connection.conn.readSome(bytes);
        if (status == net::ReadStatus::Closed ||
            status == net::ReadStatus::Error) {
            connection.dead = true;
            return;
        }
        if (bytes.empty())
            return;
        connection.lastSeenNanos = telemetry::monotonicNanos();
        connection.reader.feed(bytes.data(), bytes.size());
        net::Frame frame;
        for (;;) {
            const net::FrameReader::Status next =
                connection.reader.next(frame);
            if (next == net::FrameReader::Status::NeedMore)
                return;
            if (next == net::FrameReader::Status::Error) {
                warn(msg("dropping connection ", connection.id, ": ",
                         connection.reader.error()));
                connection.dead = true;
                return;
            }
            handleFrame(connection, frame);
            if (connection.dead)
                return;
        }
    }

    void
    send(Connection &connection, FrameType type,
         const std::string &payload)
    {
        connection.outbox +=
            net::encodeFrame(static_cast<uint32_t>(type), payload);
    }

    void
    protocolError(Connection &connection, const std::string &text)
    {
        warn(msg("connection ", connection.id, ": ", text));
        send(connection, FrameType::ErrorMsg,
             encode(ErrorMsgMsg{1, text}));
        connection.dead = true;
    }

    void
    handleFrame(Connection &connection, const net::Frame &frame)
    {
        const FrameType type = static_cast<FrameType>(frame.type);
        std::string error;
        if (connection.kind == Connection::Kind::Pending) {
            HelloMsg hello;
            if (type != FrameType::Hello ||
                !decode(frame.payload, hello, error)) {
                protocolError(connection,
                              error.empty()
                                  ? "expected hello as first frame"
                                  : error);
                return;
            }
            connection.kind = hello.role == PeerRole::Worker
                                  ? Connection::Kind::Worker
                                  : Connection::Kind::Client;
            send(connection, FrameType::HelloAck, "");
            return;
        }
        switch (type) {
          case FrameType::Heartbeat:
            return;
          case FrameType::Submit:
            handleSubmit(connection, frame.payload);
            return;
          case FrameType::Attach:
            handleAttach(connection, frame.payload);
            return;
          case FrameType::ShardResult:
            handleShardResult(connection, frame.payload);
            return;
          case FrameType::ShutdownRequest:
            inform("shutdown requested by client");
            send(connection, FrameType::ShutdownAck, "");
            serverShutdownFlag = 1;
            return;
          case FrameType::ErrorMsg: {
            ErrorMsgMsg message;
            if (decode(frame.payload, message, error))
                warn(msg("peer error on connection ", connection.id,
                         ": ", message.text));
            connection.dead = true;
            return;
          }
          default:
            protocolError(connection,
                          msg("unexpected frame type ", frame.type));
        }
    }

    void
    handleSubmit(Connection &connection, const std::string &payload)
    {
        SubmitMsg submit;
        std::string error;
        if (!decode(payload, submit, error)) {
            protocolError(connection, error);
            return;
        }
        if (draining_) {
            protocolError(connection, "server is shutting down");
            return;
        }
        core::CampaignConfig config = core::buildCampaign(submit.params);
        const uint64_t hash = core::campaignConfigHash(config);
        if (hash != submit.params.configHash) {
            protocolError(
                connection,
                msg("campaign config hash mismatch (client ",
                    submit.params.configHash, ", server ", hash,
                    "); client and server builds are skewed"));
            return;
        }
        auto campaign = std::make_unique<Campaign>();
        campaign->id = nextCampaignId_++;
        campaign->params = submit.params;
        campaign->tracePath = submit.tracePath;
        campaign->config = std::move(config);
        campaign->numSessions = campaign->config.sessions.size();
        campaign->units.resize(campaign->numSessions *
                               submit.params.replicates);
        campaign->unitDone.assign(campaign->units.size(), false);
        if (submit.params.wantMetrics)
            campaign->registry =
                std::make_unique<telemetry::MetricRegistry>(1);
        for (uint32_t session = 0;
             session < campaign->numSessions; ++session)
            for (uint32_t replicate = 0;
                 replicate < submit.params.replicates; ++replicate)
                campaign->pending.push_back({session, replicate});
        const uint64_t id = campaign->id;
        const uint64_t total = campaign->units.size();
        inform(msg("campaign ", id, " accepted: ", total, " units"));
        campaigns_.emplace(id, std::move(campaign));
        connection.watching = id;
        send(connection, FrameType::Accepted,
             encode(AcceptedMsg{id, total}));
    }

    void
    handleAttach(Connection &connection, const std::string &payload)
    {
        AttachMsg attach;
        std::string error;
        if (!decode(payload, attach, error)) {
            protocolError(connection, error);
            return;
        }
        const auto it = campaigns_.find(attach.campaignId);
        if (it == campaigns_.end()) {
            protocolError(connection, msg("unknown campaign ",
                                          attach.campaignId));
            return;
        }
        Campaign &campaign = *it->second;
        connection.watching = campaign.id;
        // A re-attaching client starts from scratch: reset any stream
        // state and send the current standing immediately.
        connection.artifactQueue.clear();
        connection.artifactOffset = 0;
        connection.doneQueued = false;
        send(connection, FrameType::Progress,
             encode(ProgressMsg{campaign.id, campaign.unitsDone,
                                campaign.units.size()}));
        if (campaign.failed) {
            send(connection, FrameType::CampaignDone,
                 encode(CampaignDoneMsg{campaign.id, false,
                                        campaign.failure}));
            connection.doneQueued = true;
        } else if (campaign.finished) {
            beginArtifactStream(connection, campaign);
        }
    }

    void
    handleShardResult(Connection &connection,
                      const std::string &payload)
    {
        if (connection.kind != Connection::Kind::Worker ||
            !connection.busy) {
            protocolError(connection, "unexpected shard result");
            return;
        }
        ShardResultMsg result;
        std::string error;
        if (!decode(payload, result, error)) {
            protocolError(connection, error);
            return;
        }
        const PendingShard &shard = connection.shard;
        if (result.campaignId != connection.shardCampaign ||
            result.session != shard.session ||
            result.replicate != shard.replicate) {
            protocolError(connection,
                          "shard result does not match assignment");
            return;
        }
        const auto it = campaigns_.find(result.campaignId);
        if (it == campaigns_.end()) {
            connection.busy = false;
            return;
        }
        Campaign &campaign = *it->second;
        if (campaign.finished || campaign.failed) {
            connection.busy = false;
            return;
        }
        // Validate before touching campaign state: a rejected result
        // must leave nothing applied, so the reaper can requeue the
        // unit's coordinates cleanly (busy stays set until the result
        // is accepted).
        const size_t index =
            static_cast<size_t>(shard.replicate) * campaign.numSessions +
            shard.session;
        if (campaign.unitDone[index]) {
            protocolError(connection, "duplicate unit result");
            return;
        }
        connection.busy = false;
        campaign.workersSeen.insert(connection.id);
        campaign.units[index] = std::move(result.unit);
        campaign.unitDone[index] = true;
        ++campaign.unitsDone;
        absorbTelemetry(campaign, result);
        broadcastProgress(campaign);
        if (campaign.unitsDone == campaign.units.size())
            finalizeCampaign(campaign);
    }

    void
    absorbTelemetry(Campaign &campaign, const ShardResultMsg &result)
    {
        if (campaign.registry == nullptr)
            return;
        std::string error;
        if (!result.prefixTelemetry.empty() &&
            !campaign.prefixTelemetrySeen) {
            telemetry::MetricShard decoded;
            if (!decode(result.prefixTelemetry, decoded, error)) {
                warn(msg("campaign ", campaign.id,
                         ": dropping prefix telemetry: ", error));
            } else {
                // The first blob wins; sealing is deterministic, so
                // duplicates are bit-identical and dropping them
                // reproduces the local once-per-campaign accounting.
                campaign.prefixTelemetrySeen = true;
                campaign.registry->shard(0).merge(decoded);
            }
        }
        telemetry::MetricShard decoded;
        if (!decode(result.shardTelemetry, decoded, error))
            warn(msg("campaign ", campaign.id,
                     ": dropping shard telemetry: ", error));
        else
            campaign.registry->shard(0).merge(decoded);
    }

    void
    broadcastProgress(const Campaign &campaign)
    {
        const std::string payload = encode(ProgressMsg{
            campaign.id, campaign.unitsDone, campaign.units.size()});
        for (auto &entry : connections_) {
            Connection &connection = *entry.second;
            if (!connection.dead &&
                connection.kind == Connection::Kind::Client &&
                connection.watching == campaign.id)
                send(connection, FrameType::Progress, payload);
        }
    }

    void
    finalizeCampaign(Campaign &campaign)
    {
        const telemetry::ShardScope scope(
            campaign.registry != nullptr
                ? &campaign.registry->shard(0)
                : nullptr);
        if (campaign.params.wantTrace) {
            const telemetry::ScopedPhase timer(
                telemetry::Phase::TraceWrite);
            campaign.traceFile = core::encodeCampaignTrace(
                campaign.config, campaign.params.seed, campaign.units);
        }
        const core::ReplicatedCampaignResult sweep =
            core::mergeUnitOutcomes(campaign.units, campaign.numSessions);
        campaign.report = core::renderCampaignReport(
            campaign.params, campaign.tracePath, sweep);
        if (campaign.registry != nullptr)
            campaign.manifest = core::renderCampaignManifest(
                campaign.params, sweep, campaign.registry.get(),
                static_cast<unsigned>(campaign.workersSeen.size()),
                campaign.elapsed.seconds());
        campaign.finished = true;
        ++campaignsFinished_;
        inform(msg("campaign ", campaign.id, " finished (",
                   campaign.units.size(), " units)"));
        for (auto &entry : connections_) {
            Connection &connection = *entry.second;
            if (!connection.dead &&
                connection.kind == Connection::Kind::Client &&
                connection.watching == campaign.id)
                beginArtifactStream(connection, campaign);
        }
    }

    void
    beginArtifactStream(Connection &connection, const Campaign &campaign)
    {
        connection.artifactQueue.clear();
        connection.artifactOffset = 0;
        connection.doneQueued = false;
        connection.artifactQueue.push_back(ArtifactKind::Report);
        if (campaign.params.wantTrace)
            connection.artifactQueue.push_back(ArtifactKind::Trace);
        if (campaign.params.wantMetrics)
            connection.artifactQueue.push_back(ArtifactKind::Manifest);
    }

    const std::string &
    artifactBytes(const Campaign &campaign, ArtifactKind kind) const
    {
        switch (kind) {
          case ArtifactKind::Report:
            return campaign.report;
          case ArtifactKind::Trace:
            return campaign.traceFile;
          case ArtifactKind::Manifest:
            return campaign.manifest;
        }
        panic("unreachable artifact kind");
    }

    /**
     * Stream queued artifacts in bounded chunks, filling each client's
     * outbox only while it is below the high-water mark -- a slow
     * client throttles its own stream instead of ballooning server
     * memory.
     */
    void
    fillArtifacts()
    {
        for (auto &entry : connections_) {
            Connection &connection = *entry.second;
            if (connection.dead || connection.watching == 0)
                continue;
            const auto it = campaigns_.find(connection.watching);
            if (it == campaigns_.end())
                continue;
            const Campaign &campaign = *it->second;
            while (!connection.artifactQueue.empty() &&
                   connection.outbox.size() < outboxHighWater) {
                const ArtifactKind kind =
                    connection.artifactQueue.front();
                const std::string &bytes =
                    artifactBytes(campaign, kind);
                const size_t remaining =
                    bytes.size() - connection.artifactOffset;
                const size_t take =
                    std::min(remaining, artifactChunkBytes);
                ArtifactChunkMsg chunk;
                chunk.campaignId = campaign.id;
                chunk.kind = kind;
                chunk.last = take == remaining;
                chunk.bytes =
                    bytes.substr(connection.artifactOffset, take);
                send(connection, FrameType::ArtifactChunk,
                     encode(chunk));
                connection.artifactOffset += take;
                if (chunk.last) {
                    connection.artifactQueue.pop_front();
                    connection.artifactOffset = 0;
                }
            }
            if (connection.artifactQueue.empty() &&
                !connection.doneQueued && campaign.finished) {
                send(connection, FrameType::CampaignDone,
                     encode(CampaignDoneMsg{campaign.id, true, ""}));
                connection.doneQueued = true;
            }
        }
    }

    void
    assignWork()
    {
        for (auto &entry : connections_) {
            Connection &connection = *entry.second;
            if (connection.dead ||
                connection.kind != Connection::Kind::Worker ||
                connection.busy)
                continue;
            if (draining_)
                continue; // drain in-flight work, start nothing new
            Campaign *chosen = nullptr;
            for (auto &campaign_entry : campaigns_) {
                Campaign &campaign = *campaign_entry.second;
                if (!campaign.finished && !campaign.failed &&
                    !campaign.pending.empty()) {
                    chosen = &campaign;
                    break;
                }
            }
            if (chosen == nullptr)
                return;
            const PendingShard shard = chosen->pending.front();
            chosen->pending.pop_front();
            connection.busy = true;
            connection.shardCampaign = chosen->id;
            connection.shard = shard;
            ShardAssignMsg assign;
            assign.campaignId = chosen->id;
            assign.params = chosen->params;
            assign.session = shard.session;
            assign.replicate = shard.replicate;
            send(connection, FrameType::ShardAssign,
                 encode(assign));
        }
    }

    void
    reapConnections()
    {
        for (auto it = connections_.begin();
             it != connections_.end();) {
            Connection &connection = *it->second;
            if (!connection.dead) {
                ++it;
                continue;
            }
            if (connection.busy)
                requeueShard(connection);
            // Best effort, never blocking: a peer refused by
            // protocolError() gets to read the ErrorMsg saying why.
            connection.conn.writeSome(connection.outbox);
            it = connections_.erase(it);
        }
    }

    void
    requeueShard(const Connection &connection)
    {
        const auto it = campaigns_.find(connection.shardCampaign);
        if (it == campaigns_.end())
            return;
        Campaign &campaign = *it->second;
        if (campaign.finished || campaign.failed)
            return;
        warn(msg("worker connection ", connection.id,
                 " lost mid-unit; requeueing campaign ", campaign.id,
                 " session ", connection.shard.session, " replicate ",
                 connection.shard.replicate));
        // Front of the queue: the lost unit is the oldest outstanding
        // work and should not starve behind the backlog.
        campaign.pending.push_front(connection.shard);
    }

    void
    enforceTimeouts()
    {
        const uint64_t now = telemetry::monotonicNanos();
        const auto seconds = [now](uint64_t since) {
            return static_cast<double>(now - since) * 1e-9;
        };
        for (auto &entry : connections_) {
            Connection &connection = *entry.second;
            if (connection.dead)
                continue;
            if (connection.kind == Connection::Kind::Pending &&
                seconds(connection.connectedNanos) >
                    handshakeTimeoutSeconds) {
                warn(msg("connection ", connection.id,
                         ": handshake timeout"));
                connection.dead = true;
                continue;
            }
            if (connection.kind != Connection::Kind::Pending &&
                !connection.busy &&
                seconds(connection.lastSeenNanos) >
                    idleTimeoutSeconds) {
                warn(msg("connection ", connection.id,
                         ": idle timeout"));
                connection.dead = true;
            }
        }
    }

    void
    beginDrain()
    {
        draining_ = true;
        listener_.close();
        inform("draining: waiting for in-flight shards");
    }

    void
    drainStep()
    {
        for (const auto &entry : connections_)
            if (!entry.second->dead && entry.second->busy)
                return; // still draining
        for (auto &entry : campaigns_) {
            Campaign &campaign = *entry.second;
            if (campaign.finished || campaign.failed)
                continue;
            campaign.failed = true;
            campaign.failure = "server shut down before completion";
            const std::string payload = encode(
                CampaignDoneMsg{campaign.id, false, campaign.failure});
            for (auto &conn_entry : connections_) {
                Connection &connection = *conn_entry.second;
                if (!connection.dead &&
                    connection.kind == Connection::Kind::Client &&
                    connection.watching == campaign.id)
                    send(connection, FrameType::CampaignDone,
                         payload);
            }
        }
        drained_ = true;
    }

    bool
    outboxesEmpty() const
    {
        for (const auto &entry : connections_) {
            const Connection &connection = *entry.second;
            if (connection.dead)
                continue;
            if (!connection.outbox.empty() ||
                !connection.artifactQueue.empty())
                return false;
        }
        return true;
    }

    bool
    exitReady() const
    {
        if (drained_ && outboxesEmpty())
            return true;
        return config_.maxCampaigns != 0 &&
               campaignsFinished_ >= config_.maxCampaigns &&
               outboxesEmpty();
    }

    ServerConfig config_;
    net::TcpListener listener_;
    std::map<uint64_t, std::unique_ptr<Connection>> connections_;
    std::map<uint64_t, std::unique_ptr<Campaign>> campaigns_;
    uint64_t nextConnectionId_ = 1;
    uint64_t nextCampaignId_ = 1;
    unsigned campaignsFinished_ = 0;
    bool draining_ = false;
    bool drained_ = false;
};

} // namespace

int
runServer(const ServerConfig &config)
{
    Server server(config);
    return server.run();
}

} // namespace xser::service
