/**
 * @file
 * Shard execution as a library call: the single implementation of
 * "seal the campaign's golden prefix into an image" and "run one
 * (session, replicate) unit from it" that both the in-process worker
 * pool (ParallelCampaignRunner) and the distributed campaign service
 * (src/service) drive. The image (sim/golden_image.hh) never leaves
 * the process that captures it, so it carries no header or checksum.
 *
 * Everything here is a pure function of (campaign config, base seed,
 * coordinates): results are bit-identical whether a unit runs on a
 * local pool thread, a remote worker process, or is re-executed after
 * a worker died mid-shard (DESIGN.md section 12's requeue-determinism
 * argument rests on exactly this property). Telemetry recording is
 * included here -- not in the callers -- so a distributed campaign's
 * counters match a local run's to the bit.
 */

#ifndef XSER_CORE_SHARD_EXECUTOR_HH
#define XSER_CORE_SHARD_EXECUTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/beam_campaign.hh"
#include "sim/golden_image.hh"
#include "trace/trace_buffer.hh"

namespace xser::core {

/**
 * Everything one (session, replicate) unit hands to the canonical
 * merge, wherever it ran: a local pool slot, a worker's ShardResult,
 * or a server-side slot all carry exactly this.
 */
struct UnitOutcome {
    SessionResult result;
    /** Lifecycle events the unit recorded (0 when untraced). */
    uint64_t traceEventCount = 0;
    /** The unit's encoded .xtrace section (empty when untraced). */
    std::string traceBytes;
};

/**
 * Executes (session, replicate) units of one campaign. Every unit
 * restores the campaign's one golden prefix (campaignPrefixKey) and
 * runs only its continuation. Stateless between calls apart from the
 * configuration, so a single instance can serve any number of shards
 * in any order.
 */
class ShardExecutor
{
  public:
    /**
     * @param config The campaign (sessions in canonical order); fatal
     *        when its sessions need two prefixes.
     * @param base_seed Seed for replicate-stream derivation.
     * @param trace_buffer_events Per-unit trace-buffer capacity in
     *        events; 0 runs every unit untraced.
     */
    ShardExecutor(const CampaignConfig &config, uint64_t base_seed,
                  uint64_t trace_buffer_events);

    /** The hash of the campaign's prefix key (prefixKeyHash). */
    uint64_t prefixKeyHash() const { return keyHash_; }

    /**
     * Run the campaign's golden prefix on a platform built from its
     * key alone and capture its golden image. Records the prefix
     * telemetry (CheckpointsSealed, CheckpointSealedBytes,
     * CheckpointKilobytes) on the caller's active shard.
     */
    GoldenImage sealPrefix() const;

    /**
     * The session a unit runs: the configured one, reseeded for
     * replicates >= 1 (core/parallel_campaign.hh's determinism
     * contract). When `trace` is non-null it is labelled with the
     * unit's coordinates and becomes the session's sink. Running it
     * with TestSession::execute() on a fresh platform is the straight
     * reference runUnit() matches bit for bit.
     */
    SessionConfig unitConfig(size_t session_index,
                             unsigned replicate_index,
                             trace::TraceBuffer *trace = nullptr) const;

    /**
     * Run one (session, replicate) unit on a fresh platform: load the
     * campaign's golden prefix from `prefix` (the image sealPrefix()
     * captured under this key) and run the continuation from it.
     * A traced unit records into its own buffer and returns it
     * encoded, so no sink is ever shared between units.
     * Records the per-unit telemetry (UnitsCompleted, RunsPerUnit,
     * ErrorEventsPerUnit, the restore's CheckpointsOpened /
     * CheckpointOpenedBytes, and the timing-quarantined UnitSeconds /
     * unitsExecuted) on the caller's active shard.
     */
    UnitOutcome runUnit(size_t session_index, unsigned replicate_index,
                        const GoldenImage &prefix) const;

  private:
    CampaignConfig config_;
    uint64_t baseSeed_;
    PrefixKey key_;
    uint64_t keyHash_;
    uint64_t traceBufferEvents_;
};

} // namespace xser::core

#endif // XSER_CORE_SHARD_EXECUTOR_HH
