/**
 * @file
 * Multithreaded campaign execution with deterministic replay, and the
 * canonical merge every campaign path shares.
 *
 * A campaign's sessions are mutually independent (each runs on a
 * freshly constructed platform), and so are whole-campaign replicates
 * run for confidence-interval tightening. ParallelCampaignRunner
 * shards those (session, replicate) work units across a fixed-size
 * worker pool and merges the per-unit outcomes in canonical index
 * order, so the output is bit-identical for any worker count --
 * including one -- and for any scheduling of the workers. The
 * campaign service (src/service) runs the same units in worker
 * processes and finishes them with the same mergeUnitOutcomes() and
 * encodeCampaignTrace().
 *
 * Determinism contract:
 *  - replicate 0 runs every session with the seed already present in
 *    its SessionConfig, so it matches TestSession::execute() on a
 *    fresh platform per session, bit for bit;
 *  - replicate r >= 1 reseeds session s with
 *    deriveStreamSeed(seed, s, r) (see sim/rng.hh), a pure function of
 *    the coordinate -- never of thread identity or completion order;
 *  - merging (event pooling and the Chan-merge Summary accumulators)
 *    always walks replicates then sessions in index order after all
 *    units have finished.
 */

#ifndef XSER_CORE_PARALLEL_CAMPAIGN_HH
#define XSER_CORE_PARALLEL_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/beam_campaign.hh"
#include "core/dcs_calculator.hh"
#include "core/fit_calculator.hh"
#include "core/shard_executor.hh"
#include "stats/summary.hh"
#include "trace/trace_buffer.hh"

namespace xser::trace {
class TraceWriter;
} // namespace xser::trace

namespace xser::telemetry {
class MetricRegistry;
class ProgressMeter;
} // namespace xser::telemetry

namespace xser::core {

/** Parallel execution parameters. */
struct ParallelRunConfig {
    /** Worker threads; 1 executes inline on the calling thread. */
    unsigned jobs = 1;
    /** Whole-campaign replicates (>= 1). */
    unsigned replicates = 1;
    /** Base seed for replicate stream derivation (replicates >= 1). */
    uint64_t seed = 0x5e5510ULL;
    /** Per-unit trace buffer capacity (events) when tracing. */
    uint64_t traceBufferEvents = trace::TraceBuffer::defaultMaxEvents;
    /**
     * Optional metrics sink with at least min(jobs, units) shards;
     * each worker records into its own shard and the registry merges
     * them canonically (DESIGN.md section 11). Telemetry observes
     * only: results and trace bytes are bit-identical whether this is
     * null or not, for any --jobs -- gated by test_telemetry.
     */
    telemetry::MetricRegistry *metrics = nullptr;
    /** Optional live progress meter, ticked once per finished task. */
    telemetry::ProgressMeter *progress = nullptr;
};

/**
 * Stable hash of everything that shapes a campaign's behaviour,
 * embedded in trace headers so an analysis tool can refuse to diff
 * traces from different experiments. Not a cryptographic digest --
 * FNV-1a over the configuration fields in declaration order.
 */
uint64_t campaignConfigHash(const CampaignConfig &config);

/**
 * Mergeable per-session aggregate over replicates: pooled counts for
 * exact Poisson estimates plus Chan-merged spread statistics of the
 * per-replicate point estimates.
 */
struct SessionAggregate {
    volt::OperatingPoint point;
    uint64_t replicates = 0;
    uint64_t runs = 0;
    double fluence = 0.0;
    EventCounts events;
    uint64_t upsetsDetected = 0;
    uint64_t rawUpsetEvents = 0;

    /* Per-replicate point-estimate distributions. */
    Summary fitTotal;
    Summary fitSdc;
    Summary upsetsPerMinute;

    /** Fold one replicate's session result in. */
    void add(const SessionResult &session);

    /** Chan-merge another aggregate of the same session. */
    void merge(const SessionAggregate &other);

    /** Eq. 1 estimates over the pooled counts. */
    DcsBreakdown pooledDcs(double confidence = 0.95) const;

    /** Eq. 2 estimates over the pooled counts. */
    FitBreakdown pooledFit(double confidence = 0.95) const;
};

/** Outcome of a replicated campaign run. */
struct ReplicatedCampaignResult {
    /** Full per-replicate results, indexed [replicate]. */
    std::vector<CampaignResult> replicates;
    /** Merged per-session aggregates, indexed like the config. */
    std::vector<SessionAggregate> sessions;
};

/**
 * The canonical merge: regroup unit outcomes, indexed replicate-major
 * (unit = replicate * num_sessions + session), into per-replicate
 * results and fold each into its session's aggregate in that same
 * order -- never completion order.
 */
ReplicatedCampaignResult
mergeUnitOutcomes(const std::vector<UnitOutcome> &units,
                  size_t num_sessions);

/**
 * A campaign's complete .xtrace bytes: the header (its array table
 * taken from a throwaway MemorySystem built from the platform config)
 * followed by every unit's encoded section in canonical unit order.
 */
std::string encodeCampaignTrace(const CampaignConfig &config,
                                uint64_t seed,
                                const std::vector<UnitOutcome> &units);

/**
 * Executes a campaign's (session, replicate) units on a worker pool.
 *
 * Unit execution itself lives in core::ShardExecutor (the library
 * seam the distributed campaign service also drives); this class adds
 * the thread pool, the campaign's one prefix seal, and the pre-sized
 * outcome slots.
 */
class ParallelCampaignRunner
{
  public:
    ParallelCampaignRunner(const CampaignConfig &config,
                           const ParallelRunConfig &run);

    /**
     * Tasks executeAll() ticks the progress meter for: the prefix
     * seal, then every unit.
     */
    size_t taskCount() const;

    /**
     * Execute all replicates and merge.
     *
     * @param trace_writer Optional open writer; when set, each unit
     *        records into its own bounded buffer and the merged trace
     *        is written in canonical unit order after the pool drains,
     *        so the file is bit-identical for any worker count.
     */
    ReplicatedCampaignResult
    executeAll(trace::TraceWriter *trace_writer = nullptr);

  private:
    CampaignConfig config_;
    ParallelRunConfig run_;
};

} // namespace xser::core

#endif // XSER_CORE_PARALLEL_CAMPAIGN_HH
