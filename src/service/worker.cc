/**
 * @file
 * xser-worker implementation.
 */

#include "service/worker.hh"

#include <cstdlib>
#include <map>
#include <memory>
#include <vector>

#include "core/parallel_campaign.hh"
#include "core/shard_executor.hh"
#include "net/frame.hh"
#include "net/socket.hh"
#include "service/protocol.hh"
#include "sim/logging.hh"
#include "telemetry/metrics.hh"
#include "telemetry/stopwatch.hh"

namespace xser::service {

namespace {

/** Everything the worker caches for one campaign. */
struct WorkerCampaign {
    std::unique_ptr<core::ShardExecutor> executor;
    /** Whether this campaign has been sent the prefix telemetry. */
    bool prefixTelemetrySent = false;
};

class Worker
{
  public:
    explicit Worker(const WorkerConfig &config) : config_(config) {}

    int
    run()
    {
        std::string error;
        conn_ = net::connectTo(config_.host, config_.port, error);
        if (!conn_.open())
            fatal(msg("cannot connect to ", config_.host, ":",
                      config_.port, ": ", error));
        send(FrameType::Hello,
             encode(HelloMsg{PeerRole::Worker}));

        uint64_t last_heartbeat = telemetry::monotonicNanos();
        for (;;) {
            std::vector<net::PollItem> items(1);
            items[0].fd = conn_.fd();
            items[0].wantRead = true;
            items[0].wantWrite = !outbox_.empty();
            net::pollSockets(items, 1000);
            if (items[0].canRead) {
                std::string bytes;
                const net::ReadStatus status = conn_.readSome(bytes);
                if (status == net::ReadStatus::Closed) {
                    inform("server closed the connection; exiting");
                    return 0;
                }
                if (status == net::ReadStatus::Error)
                    fatal("connection to server lost");
                reader_.feed(bytes.data(), bytes.size());
                if (!drainFrames())
                    return 1;
            }
            if (!outbox_.empty() &&
                conn_.writeSome(outbox_) == net::WriteStatus::Error)
                fatal("connection to server lost");
            const uint64_t now = telemetry::monotonicNanos();
            if (static_cast<double>(now - last_heartbeat) * 1e-9 >
                heartbeatSeconds) {
                send(FrameType::Heartbeat, "");
                last_heartbeat = now;
            }
        }
    }

  private:
    void
    send(FrameType type, const std::string &payload)
    {
        outbox_ +=
            net::encodeFrame(static_cast<uint32_t>(type), payload);
    }

    /** Drain buffered frames; false means exit with an error. */
    bool
    drainFrames()
    {
        net::Frame frame;
        for (;;) {
            const net::FrameReader::Status status =
                reader_.next(frame);
            if (status == net::FrameReader::Status::NeedMore)
                return true;
            if (status == net::FrameReader::Status::Error) {
                warn(msg("protocol error from server: ",
                         reader_.error()));
                return false;
            }
            if (!handleFrame(frame))
                return false;
        }
    }

    bool
    handleFrame(const net::Frame &frame)
    {
        std::string error;
        switch (static_cast<FrameType>(frame.type)) {
          case FrameType::HelloAck:
          case FrameType::Heartbeat:
            return true;
          case FrameType::ShardAssign: {
            ShardAssignMsg assign;
            if (!decode(frame.payload, assign, error)) {
                warn(msg("bad shard assignment: ", error));
                return false;
            }
            ++assignmentsSeen_;
            if (config_.crashOnShard != 0 &&
                assignmentsSeen_ == config_.crashOnShard) {
                // Test hook: die abruptly mid-shard, as a crashed or
                // OOM-killed worker would. No reply, no cleanup.
                std::_Exit(3);
            }
            runShard(assign);
            return true;
          }
          case FrameType::ErrorMsg: {
            ErrorMsgMsg message;
            if (decode(frame.payload, message, error))
                warn(msg("server error: ", message.text));
            return false;
          }
          default:
            warn(msg("unexpected frame type ", frame.type,
                     " from server"));
            return false;
        }
    }

    WorkerCampaign &
    campaignFor(const ShardAssignMsg &assign)
    {
        const auto it = campaigns_.find(assign.campaignId);
        if (it != campaigns_.end())
            return *it->second;
        // Bound the cache: a worker only ever serves a few campaigns
        // concurrently.
        if (campaigns_.size() >= 4)
            campaigns_.clear();
        auto campaign = std::make_unique<WorkerCampaign>();
        core::CampaignConfig config = core::buildCampaign(assign.params);
        const uint64_t hash = core::campaignConfigHash(config);
        if (hash != assign.params.configHash)
            fatal(msg("campaign config hash mismatch (server ",
                      assign.params.configHash, ", worker ", hash,
                      "); worker and server builds are skewed"));
        campaign->executor = std::make_unique<core::ShardExecutor>(
            config, assign.params.seed,
            assign.params.wantTrace ? assign.params.traceBufferEvents
                                    : 0);
        return *campaigns_
                    .emplace(assign.campaignId, std::move(campaign))
                    .first->second;
    }

    void
    runShard(const ShardAssignMsg &assign)
    {
        WorkerCampaign &campaign = campaignFor(assign);
        const core::ShardExecutor &executor = *campaign.executor;
        ShardResultMsg result;
        result.campaignId = assign.campaignId;
        result.session = assign.session;
        result.replicate = assign.replicate;

        const uint64_t key = executor.prefixKeyHash();
        if (prefix_.bytes == nullptr || prefixKey_ != key) {
            // Seal into a dedicated telemetry shard so the server can
            // reproduce the local once-per-campaign prefix accounting
            // (it keeps the first blob per campaign).
            telemetry::MetricShard prefix_shard;
            {
                const telemetry::ShardScope scope(&prefix_shard);
                prefix_ = executor.sealPrefix();
            }
            prefixKey_ = key;
            prefixTelemetry_ = encode(prefix_shard);
        }
        if (!campaign.prefixTelemetrySent) {
            campaign.prefixTelemetrySent = true;
            result.prefixTelemetry = prefixTelemetry_;
        }

        telemetry::MetricShard shard_telemetry;
        {
            const telemetry::ShardScope scope(&shard_telemetry);
            result.unit = executor.runUnit(assign.session,
                                           assign.replicate, prefix_);
        }
        result.shardTelemetry = encode(shard_telemetry);
        send(FrameType::ShardResult, encode(result));
    }

    WorkerConfig config_;
    net::TcpConnection conn_;
    net::FrameReader reader_;
    std::string outbox_;
    std::map<uint64_t, std::unique_ptr<WorkerCampaign>> campaigns_;
    /** The worker's one golden prefix, its key hash and telemetry. */
    GoldenImage prefix_;
    uint64_t prefixKey_ = 0;
    std::string prefixTelemetry_;
    unsigned assignmentsSeen_ = 0;
};

} // namespace

int
runWorker(const WorkerConfig &config)
{
    Worker worker(config);
    return worker.run();
}

} // namespace xser::service
