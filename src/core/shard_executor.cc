/**
 * @file
 * ShardExecutor implementation.
 */

#include "core/shard_executor.hh"

#include <memory>

#include "core/golden_prefix.hh"
#include "core/test_session.hh"
#include "sim/golden_image.hh"
#include "sim/rng.hh"
#include "telemetry/metrics.hh"
#include "trace/trace_writer.hh"

namespace xser::core {

ShardExecutor::ShardExecutor(const CampaignConfig &config,
                             uint64_t base_seed,
                             uint64_t trace_buffer_events)
    : config_(config), baseSeed_(base_seed),
      key_(campaignPrefixKey(config)),
      keyHash_(core::prefixKeyHash(key_)),
      traceBufferEvents_(trace_buffer_events)
{
}

GoldenImage
ShardExecutor::sealPrefix() const
{
    cpu::XGene2Platform platform(key_.platform);
    GoldenPrefix prefix;
    {
        const telemetry::ScopedPhase timer(telemetry::Phase::Prefix);
        prefix.run(platform, key_);
    }
    const telemetry::ScopedPhase timer(
        telemetry::Phase::SnapshotEncode);
    const auto walk = [&](Archive &ar) { prefix.visit(ar, platform, key_); };
    GoldenImage image = GoldenImage::capture(walk);
    const uint64_t bytes = image.bytes->size();
    telemetry::count(telemetry::Counter::CheckpointsSealed);
    telemetry::count(telemetry::Counter::CheckpointSealedBytes, bytes);
    telemetry::distAdd(telemetry::Dist::CheckpointKilobytes,
                       static_cast<double>(bytes) / 1024.0);
    return image;
}

SessionConfig
ShardExecutor::unitConfig(size_t session_index, unsigned replicate_index,
                          trace::TraceBuffer *trace) const
{
    SessionConfig config = config_.sessions[session_index];
    // Replicate 0 keeps the configured seed (sequential-compatible);
    // later replicates draw their own coordinate-derived stream.
    if (replicate_index > 0)
        config.seed = deriveStreamSeed(
            baseSeed_, static_cast<uint64_t>(session_index),
            replicate_index);
    if (trace != nullptr) {
        trace->info.session = static_cast<uint32_t>(session_index);
        trace->info.replicate = replicate_index;
        trace->info.pmdMillivolts = config.point.pmdMillivolts;
        trace->info.socMillivolts = config.point.socMillivolts;
        trace->info.frequencyHz = config.point.frequencyHz;
        trace->info.workloads = config.workloadNames;
        config.traceSink = trace;
    }
    return config;
}

UnitOutcome
ShardExecutor::runUnit(size_t session_index, unsigned replicate_index,
                       const GoldenImage &prefix) const
{
    telemetry::MetricShard *shard = telemetry::activeShard();
    const uint64_t begin_nanos =
        shard != nullptr ? telemetry::monotonicNanos() : 0;

    std::unique_ptr<trace::TraceBuffer> buffer;
    if (traceBufferEvents_ > 0)
        buffer = std::make_unique<trace::TraceBuffer>(traceBufferEvents_);
    cpu::XGene2Platform platform = [&] {
        const telemetry::ScopedPhase timer(telemetry::Phase::PlatformBuild);
        return cpu::XGene2Platform(config_.platform);
    }();
    TestSession session(&platform, unitConfig(session_index,
                                              replicate_index,
                                              buffer.get()));
    GoldenPrefix golden;

    {
        const telemetry::ScopedPhase timer(
            telemetry::Phase::SnapshotRestore);
        telemetry::count(telemetry::Counter::CheckpointsOpened);
        telemetry::count(telemetry::Counter::CheckpointOpenedBytes,
                         prefix.bytes->size());
        const auto walk = [&](Archive &ar) {
            golden.visit(ar, platform, key_);
        };
        prefix.loadInto(walk);
    }
    UnitOutcome outcome;
    {
        const telemetry::ScopedPhase timer(
            telemetry::Phase::Continuation);
        outcome.result = session.runContinuation(std::move(golden));
    }
    if (buffer != nullptr) {
        const telemetry::ScopedPhase timer(telemetry::Phase::TraceWrite);
        outcome.traceEventCount = buffer->events().size();
        outcome.traceBytes = trace::TraceWriter::encodeUnit(*buffer);
    }

    if (shard != nullptr) {
        ++shard->unitsExecuted;
        telemetry::distAdd(
            telemetry::Dist::UnitSeconds,
            static_cast<double>(telemetry::monotonicNanos() -
                                begin_nanos) *
                1e-9);
        telemetry::count(telemetry::Counter::UnitsCompleted);
        telemetry::distAdd(telemetry::Dist::RunsPerUnit,
                           static_cast<double>(outcome.result.runs));
        telemetry::distAdd(
            telemetry::Dist::ErrorEventsPerUnit,
            static_cast<double>(outcome.result.events.total()));
    }
    return outcome;
}

} // namespace xser::core
