/**
 * @file
 * Shard execution as a library call: the single implementation of
 * "run one (session, replicate) unit" and "seal one session's golden
 * prefix" that both the in-process worker pool (ParallelCampaignRunner)
 * and the distributed campaign service (src/service) drive.
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
#include "core/checkpoint.hh"

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
 * Executes (session, replicate) units of one campaign. Stateless
 * between calls apart from the configuration, so a single instance
 * can serve any number of shards in any order.
 */
class ShardExecutor
{
  public:
    /**
     * @param config The campaign (sessions in canonical order).
     * @param base_seed Seed for replicate-stream derivation.
     * @param trace_buffer_events Per-unit trace-buffer capacity in
     *        events; 0 runs every unit untraced.
     */
    ShardExecutor(const CampaignConfig &config, uint64_t base_seed,
                  uint64_t trace_buffer_events);

    /**
     * The hash of the session's prefix key (prefixKeyHash): sessions
     * with equal hashes share one sealed prefix.
     */
    uint64_t prefixKeyHash(size_t session_index) const
    {
        return keyHashes_[session_index];
    }

    /**
     * Run the golden prefix of the session's key on a platform built
     * from that key alone and seal it into a checkpoint envelope
     * (core/checkpoint.hh) whose identity is the key hash. Records the
     * prefix telemetry (SessionsPrefixed, CheckpointKilobytes) on the
     * caller's active shard.
     */
    std::string sealPrefix(size_t session_index) const;

    /**
     * Verify a sealed envelope once (openCheckpoint: magic, version,
     * sizes, payload checksum), check that its key hash is the
     * session's, and return the view every unit of that key restores
     * from. The view aliases `envelope`, which must outlive it and
     * stay unmodified. Fatal ("refusing checkpoint for session N:
     * <error>") when the envelope does not open or carries another
     * key. Timed as phase SnapshotRestore on the caller's active shard.
     */
    CheckpointView openPrefix(const std::string &envelope,
                              size_t session_index) const;

    /**
     * Run one (session, replicate) unit on a fresh platform. When
     * `prefix` is non-null -- an ok view of the session's key from
     * openPrefix() -- the unit restores the prefix from it and runs
     * only the continuation; otherwise it runs the whole session. A traced
     * unit records into its own buffer and returns it encoded, so no
     * sink is ever shared between units. Records the per-unit
     * telemetry (UnitsCompleted, RunsPerUnit, ErrorEventsPerUnit, the
     * restore's CheckpointsOpened / CheckpointOpenedBytes, and the
     * timing-quarantined UnitSeconds / unitsExecuted) on the caller's
     * active shard.
     */
    UnitOutcome runUnit(size_t session_index, unsigned replicate_index,
                        const CheckpointView *prefix) const;

  private:
    CampaignConfig config_;
    uint64_t baseSeed_;
    std::vector<uint64_t> keyHashes_;
    uint64_t traceBufferEvents_;
};

} // namespace xser::core

#endif // XSER_CORE_SHARD_EXECUTOR_HH
