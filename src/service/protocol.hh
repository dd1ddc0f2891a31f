/**
 * @file
 * The xser-server application protocol: typed messages carried in
 * net::Frame envelopes (DESIGN.md section 12).
 *
 * Three peers speak it. A *client* submits a campaign (Submit) or
 * re-attaches to one by id (Attach), watches Progress, and receives
 * the finished artifacts -- report text, .xtrace bytes, run manifest
 * -- as ArtifactChunk streams followed by CampaignDone. A *worker*
 * announces itself (Hello), receives ShardAssign frames naming one
 * (session, replicate) unit each, executes it through
 * core::ShardExecutor, and answers with one atomic ShardResult.
 * The *server* owns the work queue and performs the canonical
 * replicate-major merge, so the artifacts are bit-identical to a
 * local `xser campaign --jobs N` run.
 *
 * Campaign configuration crosses the wire as core::CampaignParams
 * (scale, seed, flags), never as serialized state: each peer rebuilds
 * the CampaignConfig locally via core::buildCampaign and verifies
 * campaignConfigHash against the hash in the message, so a version- or
 * build-skewed peer is rejected at handshake instead of corrupting a
 * campaign. Units travel as core::UnitOutcome, and the server finishes
 * a campaign with the same core merge and renderers as a local run.
 * Every decode follows the core/checkpoint posture: a malformed
 * payload -- including parameters core::campaignParamsProblem refuses
 * -- yields {false, error}, never a crash.
 */

#ifndef XSER_SERVICE_PROTOCOL_HH
#define XSER_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/beam_campaign.hh"
#include "core/shard_executor.hh"
#include "telemetry/metrics.hh"

namespace xser::service {

/** Frame types (the u32 in the net::Frame header). */
enum class FrameType : uint32_t {
    Hello = 1,       ///< first frame on any connection; carries role
    HelloAck,        ///< server's handshake acceptance
    Submit,          ///< client -> server: run this campaign
    Accepted,        ///< server -> client: campaign id + unit count
    Attach,          ///< client -> server: watch an existing campaign
    Progress,        ///< server -> client: done/total units
    ShardAssign,     ///< server -> worker: execute one unit
    ShardResult,     ///< worker -> server: that unit's outcome
    Heartbeat,       ///< either direction: liveness while idle
    CampaignDone,    ///< server -> client: terminal status
    ArtifactChunk,   ///< server -> client: artifact byte range
    ErrorMsg,        ///< either direction: protocol-level failure
    ShutdownRequest, ///< client -> server: drain and exit
    ShutdownAck,     ///< server -> client: shutdown under way
};

/** Seconds between the heartbeats an idle worker or client sends. */
constexpr double heartbeatSeconds = 2.0;

/**
 * Seconds the server lets a connection sit before its Hello, and a
 * client waits for the server's HelloAck.
 */
constexpr double handshakeTimeoutSeconds = 10.0;

/**
 * Seconds of silence after which the server drops an idle connection.
 * Never applied to a worker with a unit in flight: a single-threaded
 * worker cannot heartbeat while computing.
 */
constexpr double idleTimeoutSeconds = 60.0;

/** Times a client reconnects and re-attaches after a dropped link. */
constexpr unsigned reconnectAttempts = 5;

/** Who a connection claims to be in its Hello. */
enum class PeerRole : uint8_t {
    Client = 0,
    Worker = 1,
};

/** Artifact kinds streamed in ArtifactChunk frames. */
enum class ArtifactKind : uint8_t {
    Report = 0,   ///< the campaign report text
    Trace = 1,    ///< .xtrace file bytes
    Manifest = 2, ///< run-manifest JSON
};

/** The campaign parameters Submit and ShardAssign carry. */
using core::CampaignParams;

/** Hello payload. */
struct HelloMsg {
    PeerRole role = PeerRole::Client;
};

/** Submit payload: parameters plus the client's trace path (the
 * path string appears verbatim in the report's trace line). */
struct SubmitMsg {
    CampaignParams params;
    std::string tracePath;
};

/** Accepted payload. */
struct AcceptedMsg {
    uint64_t campaignId = 0;
    uint64_t totalUnits = 0;
};

/** Attach payload. */
struct AttachMsg {
    uint64_t campaignId = 0;
};

/** Progress payload. */
struct ProgressMsg {
    uint64_t campaignId = 0;
    uint64_t done = 0;
    uint64_t total = 0;
};

/** ShardAssign payload: one (session, replicate) unit. */
struct ShardAssignMsg {
    uint64_t campaignId = 0;
    CampaignParams params;
    uint32_t session = 0;
    uint32_t replicate = 0;
};

/**
 * ShardResult payload: the outcome of the assigned unit.
 * `prefixTelemetry` is the telemetry shard the worker recorded while
 * sealing the campaign's golden prefix, attached to the worker's first
 * result of each campaign it serves (empty otherwise); the server
 * accepts the first such blob per campaign and drops duplicates, which
 * is sound because sealing is deterministic.
 * `shardTelemetry` covers the unit's execution and travels atomically
 * with its outcome, so a worker that dies mid-unit contributes nothing
 * at all and the requeued unit re-records identically.
 */
struct ShardResultMsg {
    uint64_t campaignId = 0;
    uint32_t session = 0;
    uint32_t replicate = 0;
    std::string prefixTelemetry;
    core::UnitOutcome unit;
    std::string shardTelemetry;
};

/** CampaignDone payload. */
struct CampaignDoneMsg {
    uint64_t campaignId = 0;
    bool ok = false;
    std::string error;
};

/** ArtifactChunk payload. */
struct ArtifactChunkMsg {
    uint64_t campaignId = 0;
    ArtifactKind kind = ArtifactKind::Report;
    bool last = false;
    std::string bytes;
};

/** ErrorMsg payload. */
struct ErrorMsgMsg {
    uint32_t code = 0;
    std::string text;
};

/**
 * Encode a message payload. `Msg` is one of the *Msg structs above or
 * telemetry::MetricShard. Each has exactly one field list (a visit()
 * in protocol.cc) that drives both encode() and decode().
 *
 * Strings travel behind a u32 length and opaque blobs (trace bytes,
 * telemetry shards) behind a u64 length. A MetricShard's count
 * prefixes double as version-skew guards: a peer built with a
 * different Counter/Dist/Phase enum fails the decode instead of
 * silently misattributing metrics.
 */
template <class Msg>
std::string encode(const Msg &msg);

/**
 * Decode a payload into `out`. Never fatals: a truncated, trailing, or
 * out-of-range payload (unknown role or artifact kind, campaign
 * parameters core::campaignParamsProblem refuses, a ShardAssign
 * replicate outside its parameters, a count skew) returns false with
 * `error` set. A MetricShard decodes by weighted adds into `out`'s
 * (empty) histograms, so integer counts transfer exactly.
 */
template <class Msg>
bool decode(const std::string &payload, Msg &out, std::string &error);

} // namespace xser::service

#endif // XSER_SERVICE_PROTOCOL_HH
