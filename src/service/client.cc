/**
 * @file
 * xser-client implementation.
 */

#include "service/client.hh"

#include <array>
#include <cstdio>
#include <vector>

#include "core/report_export.hh"
#include "net/frame.hh"
#include "net/socket.hh"
#include "sim/logging.hh"
#include "telemetry/metrics.hh"
#include "telemetry/progress.hh"
#include "telemetry/stopwatch.hh"

namespace xser::service {

namespace {

/** Outcome of waiting for one frame. */
enum class PumpStatus {
    Frame,   ///< a frame was extracted
    Timeout, ///< deadline passed with no complete frame
    Closed,  ///< the server closed the connection
    Error,   ///< read/write/protocol failure
};

/** Sleep without a connection (reconnect backoff). */
void
sleepSeconds(double seconds)
{
    std::vector<net::PollItem> none;
    net::pollSockets(none, static_cast<int>(seconds * 1000.0));
}

class Client
{
  public:
    explicit Client(const ClientConfig &config) : config_(config) {}

    int
    run()
    {
        switch (config_.command) {
          case ClientCommand::Shutdown:
            return runShutdown();
          case ClientCommand::Attach:
            campaignId_ = config_.campaignId;
            return runCampaign();
          case ClientCommand::Run:
            return runCampaign();
        }
        return 1;
    }

  private:
    void
    send(FrameType type, const std::string &payload)
    {
        outbox_ +=
            net::encodeFrame(static_cast<uint32_t>(type), payload);
    }

    bool
    connectAndHello(std::string &error)
    {
        reader_ = net::FrameReader();
        outbox_.clear();
        conn_ = net::connectTo(config_.host, config_.port, error);
        if (!conn_.open())
            return false;
        send(FrameType::Hello, encode(HelloMsg{PeerRole::Client}));
        net::Frame frame;
        const PumpStatus status =
            nextFrame(frame, handshakeTimeoutSeconds);
        if (status != PumpStatus::Frame ||
            static_cast<FrameType>(frame.type) != FrameType::HelloAck) {
            error = "handshake with server failed";
            return false;
        }
        return true;
    }

    /** Wait up to `timeout_seconds` for one complete frame. */
    PumpStatus
    nextFrame(net::Frame &frame, double timeout_seconds)
    {
        const telemetry::Stopwatch waited;
        for (;;) {
            const net::FrameReader::Status status =
                reader_.next(frame);
            if (status == net::FrameReader::Status::Ready)
                return PumpStatus::Frame;
            if (status == net::FrameReader::Status::Error) {
                warn(msg("protocol error from server: ",
                         reader_.error()));
                return PumpStatus::Error;
            }
            const double remaining =
                timeout_seconds - waited.seconds();
            if (remaining <= 0.0)
                return PumpStatus::Timeout;
            std::vector<net::PollItem> items(1);
            items[0].fd = conn_.fd();
            items[0].wantRead = true;
            items[0].wantWrite = !outbox_.empty();
            net::pollSockets(
                items,
                std::min(200, static_cast<int>(remaining * 1000.0) + 1));
            if (items[0].canWrite && !outbox_.empty() &&
                conn_.writeSome(outbox_) == net::WriteStatus::Error)
                return PumpStatus::Error;
            if (items[0].canRead) {
                std::string bytes;
                const net::ReadStatus read = conn_.readSome(bytes);
                if (read == net::ReadStatus::Closed)
                    return PumpStatus::Closed;
                if (read == net::ReadStatus::Error)
                    return PumpStatus::Error;
                reader_.feed(bytes.data(), bytes.size());
            }
        }
    }

    int
    runShutdown()
    {
        std::string error;
        if (!connectAndHello(error))
            fatal(msg("cannot reach server at ", config_.host, ":",
                      config_.port, ": ", error));
        send(FrameType::ShutdownRequest, "");
        net::Frame frame;
        for (;;) {
            const PumpStatus status = nextFrame(frame, 10.0);
            if (status == PumpStatus::Frame &&
                static_cast<FrameType>(frame.type) ==
                    FrameType::ShutdownAck) {
                inform("server acknowledged shutdown");
                return 0;
            }
            if (status == PumpStatus::Closed)
                return 0; // server exited before the ack flushed
            if (status != PumpStatus::Frame)
                fatal("no shutdown acknowledgement from server");
        }
    }

    int
    runCampaign()
    {
        // One initial attempt plus reconnect/resume by campaign id:
        // a dropped connection discards any partial artifact stream
        // and re-attaches from scratch.
        for (unsigned attempt = 0; attempt <= reconnectAttempts;
             ++attempt) {
            if (attempt > 0) {
                warn(msg("connection lost; reconnect attempt ",
                         attempt, " of ", reconnectAttempts));
                sleepSeconds(1.0);
            }
            std::string error;
            if (!connectAndHello(error)) {
                if (campaignId_ == 0)
                    fatal(msg("cannot reach server at ", config_.host,
                              ":", config_.port, ": ", error));
                continue;
            }
            if (campaignId_ == 0) {
                SubmitMsg submit;
                submit.params = config_.params;
                submit.tracePath = config_.tracePath;
                send(FrameType::Submit, encode(submit));
            } else {
                send(FrameType::Attach,
                     encode(AttachMsg{campaignId_}));
            }
            const int result = watch();
            if (result >= 0)
                return result;
            if (campaignId_ == 0)
                return 1; // lost before Accepted: nothing to resume
        }
        fatal("connection to server lost and could not be resumed");
    }

    /** Watch until a terminal frame; -1 means reconnect and resume. */
    int
    watch()
    {
        for (auto &artifact : artifacts_)
            artifact.clear();
        uint64_t last_heartbeat = telemetry::monotonicNanos();
        net::Frame frame;
        for (;;) {
            const PumpStatus status = nextFrame(frame, 1.0);
            if (status == PumpStatus::Closed ||
                status == PumpStatus::Error) {
                progress_.finish();
                return -1;
            }
            const uint64_t now = telemetry::monotonicNanos();
            if (static_cast<double>(now - last_heartbeat) * 1e-9 >
                heartbeatSeconds) {
                send(FrameType::Heartbeat, "");
                last_heartbeat = now;
            }
            if (status == PumpStatus::Timeout)
                continue;
            const int result = handleFrame(frame);
            if (result != -2)
                return result;
        }
    }

    /** Returns an exit code, -1 to reconnect, or -2 to keep going. */
    int
    handleFrame(const net::Frame &frame)
    {
        std::string error;
        switch (static_cast<FrameType>(frame.type)) {
          case FrameType::Heartbeat:
            return -2;
          case FrameType::Accepted: {
            AcceptedMsg accepted;
            if (!decode(frame.payload, accepted, error)) {
                warn(error);
                return 1;
            }
            campaignId_ = accepted.campaignId;
            totalUnits_ = accepted.totalUnits;
            inform(msg("campaign ", campaignId_, " accepted (",
                       totalUnits_, " units)"));
            if (config_.detach) {
                std::printf("%llu\n",
                            static_cast<unsigned long long>(
                                campaignId_));
                return 0;
            }
            beginProgress();
            return -2;
          }
          case FrameType::Progress: {
            ProgressMsg progress;
            if (!decode(frame.payload, progress, error))
                return -2;
            totalUnits_ = progress.total;
            beginProgress();
            if (progress.done > progressDone_) {
                progress_.tick(progress.done - progressDone_);
                progressDone_ = progress.done;
            }
            return -2;
          }
          case FrameType::ArtifactChunk: {
            ArtifactChunkMsg chunk;
            if (!decode(frame.payload, chunk, error)) {
                warn(error);
                return 1;
            }
            artifacts_[static_cast<size_t>(chunk.kind)] +=
                chunk.bytes;
            return -2;
          }
          case FrameType::CampaignDone: {
            CampaignDoneMsg done;
            if (!decode(frame.payload, done, error)) {
                warn(error);
                return 1;
            }
            progress_.finish();
            if (!done.ok) {
                warn(msg("campaign ", done.campaignId,
                         " failed: ", done.error));
                return 1;
            }
            return deliver();
          }
          case FrameType::ErrorMsg: {
            ErrorMsgMsg message;
            if (decode(frame.payload, message, error))
                warn(msg("server refused the request: ",
                         message.text));
            progress_.finish();
            return 1;
          }
          default:
            warn(msg("unexpected frame type ", frame.type,
                     " from server"));
            return 1;
        }
    }

    void
    beginProgress()
    {
        if (progressBegun_ || !config_.progress ||
            !telemetry::progressSupported() ||
            Logger::global().level() == LogLevel::Quiet ||
            totalUnits_ == 0)
            return;
        progress_.begin("campaign", totalUnits_);
        progressBegun_ = true;
    }

    /** Write the received artifacts and print the report. */
    int
    deliver()
    {
        if (config_.params.wantTrace && !config_.tracePath.empty())
            core::writeFile(
                config_.tracePath,
                artifacts_[static_cast<size_t>(ArtifactKind::Trace)]);
        if (config_.params.wantMetrics &&
            !config_.metricsPath.empty())
            core::writeFile(
                config_.metricsPath,
                artifacts_[static_cast<size_t>(
                    ArtifactKind::Manifest)]);
        const std::string &report =
            artifacts_[static_cast<size_t>(ArtifactKind::Report)];
        std::fwrite(report.data(), 1, report.size(), stdout);
        return 0;
    }

    ClientConfig config_;
    net::TcpConnection conn_;
    net::FrameReader reader_;
    std::string outbox_;
    uint64_t campaignId_ = 0;
    uint64_t totalUnits_ = 0;
    uint64_t progressDone_ = 0;
    bool progressBegun_ = false;
    telemetry::ProgressMeter progress_;
    std::array<std::string, 3> artifacts_;
};

} // namespace

int
runClient(const ClientConfig &config)
{
    Client client(config);
    return client.run();
}

} // namespace xser::service
