/**
 * @file
 * MetricShard / MetricRegistry implementation and metric name tables.
 */

#include "telemetry/metrics.hh"

#include "sim/logging.hh"

namespace xser::telemetry {

const char *
counterName(Counter counter)
{
    switch (counter) {
      case Counter::UnitsCompleted: return "units_completed";
      case Counter::CheckpointsSealed: return "checkpoints_sealed";
      case Counter::CheckpointSealedBytes:
        return "checkpoint_sealed_bytes";
      case Counter::CheckpointsOpened: return "checkpoints_opened";
      case Counter::CheckpointOpenedBytes:
        return "checkpoint_opened_bytes";
      case Counter::DramPagesCopied: return "dram_pages_copied";
      case Counter::EdacCorrected: return "edac_corrected";
      case Counter::EdacUncorrected: return "edac_uncorrected";
      case Counter::ScrubPasses: return "scrub_passes";
      case Counter::ScrubLines: return "scrub_lines";
      case Counter::SnoopProbes: return "snoop_probes";
      case Counter::SnoopsFiltered: return "snoops_filtered";
      case Counter::BeamArrivals: return "beam_arrivals";
      case Counter::BeamSettles: return "beam_settles";
      case Counter::BeamQuantaSkipped: return "beam_quanta_skipped";
      case Counter::TraceEventsMerged: return "trace_events_merged";
      case Counter::NumCounters: break;
    }
    return "unknown";
}

const char *
distName(Dist dist)
{
    switch (dist) {
      case Dist::RunsPerUnit: return "runs_per_unit";
      case Dist::ErrorEventsPerUnit: return "error_events_per_unit";
      case Dist::CheckpointKilobytes: return "checkpoint_kilobytes";
      case Dist::UnitSeconds: return "unit_seconds";
      case Dist::NumDists: break;
    }
    return "unknown";
}

bool
distIsTiming(Dist dist)
{
    return dist == Dist::UnitSeconds;
}

const char *
phaseName(Phase phase)
{
    switch (phase) {
      case Phase::Prefix: return "prefix_run";
      case Phase::SnapshotEncode: return "snapshot_encode";
      case Phase::SnapshotRestore: return "snapshot_restore";
      case Phase::Continuation: return "continuation";
      case Phase::Merge: return "merge";
      case Phase::TraceWrite: return "trace_write";
      case Phase::NumPhases: break;
    }
    return "unknown";
}

namespace {

/**
 * Fixed shape per distribution; overflow buckets catch the tails.
 * Sealed envelopes are ~61,000 KB at any scale (the prefix is a dense
 * dump of the hierarchy), so CheckpointKilobytes bins in 2 MiB steps.
 */
Histogram
makeDist(Dist dist)
{
    switch (dist) {
      case Dist::RunsPerUnit: return Histogram(0.0, 4096.0, 64);
      case Dist::ErrorEventsPerUnit: return Histogram(0.0, 256.0, 64);
      case Dist::CheckpointKilobytes: return Histogram(0.0, 131072.0, 64);
      case Dist::UnitSeconds: return Histogram(0.0, 60.0, 60);
      case Dist::NumDists: break;
    }
    panic("makeDist: bad distribution index");
}

} // namespace

MetricShard::MetricShard()
{
    dists.reserve(numDists);
    for (size_t d = 0; d < numDists; ++d)
        dists.push_back(makeDist(static_cast<Dist>(d)));
}

void
MetricShard::merge(const MetricShard &other)
{
    for (size_t c = 0; c < numCounters; ++c)
        counters[c] += other.counters[c];
    for (size_t d = 0; d < numDists; ++d)
        dists[d].merge(other.dists[d]);
    for (size_t p = 0; p < numPhases; ++p)
        phaseSeconds[p] += other.phaseSeconds[p];
    unitsExecuted += other.unitsExecuted;
}

MetricRegistry::MetricRegistry(unsigned shards)
{
    if (shards == 0)
        shards = 1;
    shards_.resize(shards);
}

MetricShard &
MetricRegistry::shard(size_t index)
{
    XSER_ASSERT(index < shards_.size(), "metric shard out of range");
    return shards_[index];
}

const MetricShard &
MetricRegistry::shard(size_t index) const
{
    XSER_ASSERT(index < shards_.size(), "metric shard out of range");
    return shards_[index];
}

MetricShard
MetricRegistry::merged() const
{
    MetricShard total;
    for (const MetricShard &shard : shards_)
        total.merge(shard);
    return total;
}

} // namespace xser::telemetry
