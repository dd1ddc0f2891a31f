/**
 * @file
 * Determinism-safe campaign metrics: typed counters, phase timers, and
 * Histogram-backed distributions collected in per-worker shards and
 * merged canonically at campaign end.
 *
 * The contract (DESIGN.md section 11, machine-checked by xser-lint's
 * telemetry-purity rule): telemetry observes the simulation but never
 * feeds back into it. Counters and distributions record values that
 * are themselves pure functions of (seed, session, replicate), so the
 * merged totals are bit-identical for any --jobs; wall-clock readings
 * are tagged as timing and quarantined in the manifest's "timing"
 * section, which comparison tools skip by default.
 *
 * Instrumented code counts through the thread-local active shard:
 *
 *     telemetry::count(telemetry::Counter::EdacCorrected);
 *
 * When no shard is installed (telemetry off -- the default) every
 * recording call is a null-check and nothing else, so the instrumented
 * hot paths stay within bench_gates' telemetry overhead gate.
 */

#ifndef XSER_TELEMETRY_METRICS_HH
#define XSER_TELEMETRY_METRICS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "stats/histogram.hh"
#include "telemetry/stopwatch.hh"

namespace xser::telemetry {

/** Deterministic event counters (values independent of --jobs). */
enum class Counter : uint32_t {
    UnitsCompleted,        ///< (session, replicate) units finished
    CheckpointsSealed,     ///< golden prefixes sealed into envelopes
    CheckpointSealedBytes, ///< total sealed envelope bytes
    CheckpointsOpened,     ///< units restored from an envelope
    CheckpointOpenedBytes, ///< envelope bytes restored, one per unit
    DramPagesCopied,       ///< borrowed DRAM pages copied on first write
    EdacCorrected,         ///< CE posts through EdacReporter
    EdacUncorrected,       ///< UE posts through EdacReporter
    ScrubPasses,           ///< scrubber advances that scrubbed lines
    ScrubLines,            ///< cache lines swept by the scrubber
    SnoopProbes,           ///< L2 coherence snoops performed
    SnoopsFiltered,        ///< snoops skipped by the residency filter
    BeamArrivals,          ///< upset events injected by the beam
    BeamSettles,           ///< beam settle() evaluations
    BeamQuantaSkipped,     ///< quanta skipped by dose-space skip-ahead
    TraceEventsMerged,     ///< buffered trace events merged to disk
    NumCounters,
};

constexpr size_t numCounters = static_cast<size_t>(Counter::NumCounters);

/** Manifest key of a counter ("edac_corrected", ...). */
const char *counterName(Counter counter);

/** Histogram-backed distributions. */
enum class Dist : uint32_t {
    RunsPerUnit,         ///< workload runs per (session, replicate)
    ErrorEventsPerUnit,  ///< error events per (session, replicate)
    CheckpointKilobytes, ///< sealed envelope size per prefix key
    UnitSeconds,         ///< wall-clock seconds per unit (timing)
    NumDists,
};

constexpr size_t numDists = static_cast<size_t>(Dist::NumDists);

/** Manifest key of a distribution ("runs_per_unit", ...). */
const char *distName(Dist dist);

/**
 * True for distributions of wall-clock readings; these are emitted
 * under the manifest's "timing" section and skipped by diff tools.
 */
bool distIsTiming(Dist dist);

/** Campaign phases timed by ScopedPhase. */
enum class Phase : uint32_t {
    Prefix,          ///< golden prefix execution
    SnapshotEncode,  ///< snapshot serialization + envelope seal
    SnapshotRestore, ///< envelope validation + snapshot restore
    Continuation,    ///< per-unit session/continuation execution
    Merge,           ///< canonical aggregate merge
    TraceWrite,      ///< trace buffer merge + file write
    NumPhases,
};

constexpr size_t numPhases = static_cast<size_t>(Phase::NumPhases);

/** Manifest key of a phase ("prefix_run", ...). */
const char *phaseName(Phase phase);

/**
 * One worker's metrics. Workers never share a shard, so recording
 * needs no synchronization; the registry merges shards in shard-index
 * order -- never completion order -- once the pool has drained.
 */
class MetricShard
{
  public:
    MetricShard();

    /** Deterministic counters, indexed by Counter. */
    std::array<uint64_t, numCounters> counters{};

    /** Distributions, indexed by Dist (fixed shapes, see metrics.cc). */
    std::vector<Histogram> dists;

    /** Wall-clock seconds per phase (timing; excluded from diffs). */
    std::array<double, numPhases> phaseSeconds{};

    /** Units this worker executed (timing; scheduling-dependent). */
    uint64_t unitsExecuted = 0;

    /** Fold another shard in (index order gives canonical totals). */
    void merge(const MetricShard &other);
};

/**
 * Owns one shard per worker. Built by whoever runs a campaign with
 * telemetry enabled and handed to the runner; merged() yields the
 * canonical totals for the manifest.
 */
class MetricRegistry
{
  public:
    /** @param shards One per worker; at least one. */
    explicit MetricRegistry(unsigned shards);

    MetricShard &shard(size_t index);
    const MetricShard &shard(size_t index) const;
    size_t shardCount() const { return shards_.size(); }

    /** Merge all shards in index order. */
    MetricShard merged() const;

  private:
    std::vector<MetricShard> shards_;
};

/**
 * The calling thread's active shard; null when telemetry is off.
 * A function-local thread_local keeps the library free of dynamic
 * initialization order concerns.
 */
inline MetricShard *&
activeShard()
{
    thread_local MetricShard *shard = nullptr;
    return shard;
}

/** Installs a shard on this thread for the scope's lifetime. */
class ShardScope
{
  public:
    explicit ShardScope(MetricShard *shard) : previous_(activeShard())
    {
        activeShard() = shard;
    }
    ~ShardScope() { activeShard() = previous_; }

    ShardScope(const ShardScope &) = delete;
    ShardScope &operator=(const ShardScope &) = delete;

  private:
    MetricShard *previous_;
};

/** Bump a counter on the active shard (no-op when telemetry is off). */
inline void
count(Counter counter, uint64_t delta = 1)
{
    if (MetricShard *shard = activeShard())
        shard->counters[static_cast<size_t>(counter)] += delta;
}

/** Record a distribution sample (no-op when telemetry is off). */
inline void
distAdd(Dist dist, double value)
{
    if (MetricShard *shard = activeShard())
        shard->dists[static_cast<size_t>(dist)].add(value);
}

/**
 * Times a phase on the active shard; the reading lands in the shard's
 * phaseSeconds (timing data), never in simulated state.
 */
class ScopedPhase
{
  public:
    explicit ScopedPhase(Phase phase)
        : phase_(phase), shard_(activeShard()),
          start_(shard_ != nullptr ? monotonicNanos() : 0)
    {
    }

    ~ScopedPhase()
    {
        if (shard_ == nullptr)
            return;
        shard_->phaseSeconds[static_cast<size_t>(phase_)] +=
            static_cast<double>(monotonicNanos() - start_) * 1e-9;
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    Phase phase_;
    MetricShard *shard_;
    uint64_t start_;
};

} // namespace xser::telemetry

#endif // XSER_TELEMETRY_METRICS_HH
