/**
 * @file
 * ShardExecutor implementation.
 */

#include "core/shard_executor.hh"

#include <memory>

#include "core/golden_prefix.hh"
#include "core/test_session.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/bytes.hh"
#include "telemetry/metrics.hh"
#include "trace/trace_writer.hh"

namespace xser::core {

ShardExecutor::ShardExecutor(const CampaignConfig &config,
                             uint64_t base_seed,
                             uint64_t trace_buffer_events)
    : config_(config), baseSeed_(base_seed),
      keyHashes_(prefixKeyHashes(config)),
      traceBufferEvents_(trace_buffer_events)
{
    if (config_.sessions.empty())
        fatal("shard executor needs at least one session");
}

std::string
ShardExecutor::sealPrefix(size_t session_index) const
{
    const PrefixKey key =
        prefixKeyOf(config_.platform, config_.sessions[session_index]);
    cpu::XGene2Platform platform(key.platform);
    GoldenPrefix prefix;
    {
        const telemetry::ScopedPhase timer(telemetry::Phase::Prefix);
        prefix.run(platform, key);
    }
    const telemetry::ScopedPhase timer(
        telemetry::Phase::SnapshotEncode);
    ByteWriter writer;
    // Reserve past glibc's 32 MiB mmap ceiling so growth never doubles
    // through heap chunks whose freed copies stay resident; untouched
    // capacity costs address space, not memory.
    writer.reserve(size_t(64) << 20);
    Archive archive(writer);
    prefix.visit(archive, platform, key);
    std::string envelope =
        sealCheckpoint(keyHashes_[session_index], writer.take());
    telemetry::count(telemetry::Counter::SessionsPrefixed);
    telemetry::distAdd(telemetry::Dist::CheckpointKilobytes,
                       static_cast<double>(envelope.size()) / 1024.0);
    return envelope;
}

CheckpointView
ShardExecutor::openPrefix(const std::string &envelope,
                          size_t session_index) const
{
    const telemetry::ScopedPhase timer(telemetry::Phase::SnapshotRestore);
    CheckpointView view = openCheckpoint(envelope);
    if (view.ok && view.keyHash != keyHashes_[session_index]) {
        view.ok = false;
        view.error = msg("prefix key hash ", view.keyHash,
                         " is not the session's ",
                         keyHashes_[session_index]);
    }
    if (!view.ok)
        fatal(msg("refusing checkpoint for session ", session_index, ": ",
                  view.error));
    return view;
}

namespace {

/**
 * Run a constructed session to completion: the whole session, or --
 * given a verified prefix view -- the session's prefix restored from
 * it and only the (seed-dependent) continuation run.
 */
SessionResult
runSession(TestSession &session, size_t session_index, uint64_t key_hash,
           const CheckpointView *prefix)
{
    if (prefix == nullptr) {
        const telemetry::ScopedPhase timer(
            telemetry::Phase::Continuation);
        return session.execute();
    }

    // The checksum was verified once, when this process sealed the
    // envelope (openPrefix); the buffer is immutable since, and no
    // envelope crosses a process boundary today. Re-hashing the ~60 MB
    // payload per unit would cost more than the restore itself, so only
    // the O(1) identity check runs here.
    {
        const telemetry::ScopedPhase timer(
            telemetry::Phase::SnapshotRestore);
        XSER_ASSERT(prefix->ok, "restore from an unopened checkpoint");
        XSER_ASSERT(prefix->keyHash == key_hash,
                    "checkpoint/session prefix key mismatch");
        telemetry::count(telemetry::Counter::CheckpointsOpened);
        telemetry::count(telemetry::Counter::CheckpointOpenedBytes,
                         prefix->envelopeBytes);
        ByteReader reader(prefix->payload);
        Archive archive(reader);
        session.visitPrefix(archive);
        if (!reader.atEnd())
            fatal(msg("checkpoint payload for session ", session_index,
                      reader.ok() ? " not fully consumed by restore"
                                  : " underran during restore"));
    }
    const telemetry::ScopedPhase timer(telemetry::Phase::Continuation);
    return session.runContinuation();
}

} // namespace

UnitOutcome
ShardExecutor::runUnit(size_t session_index, unsigned replicate_index,
                       const CheckpointView *prefix) const
{
    telemetry::MetricShard *shard = telemetry::activeShard();
    const uint64_t begin_nanos =
        shard != nullptr ? telemetry::monotonicNanos() : 0;

    SessionConfig session_config = config_.sessions[session_index];
    // Replicate 0 keeps the configured seed (sequential-compatible);
    // later replicates draw their own coordinate-derived stream.
    if (replicate_index > 0)
        session_config.seed = deriveStreamSeed(
            baseSeed_, static_cast<uint64_t>(session_index),
            replicate_index);
    std::unique_ptr<trace::TraceBuffer> buffer;
    if (traceBufferEvents_ > 0) {
        buffer = std::make_unique<trace::TraceBuffer>(traceBufferEvents_);
        buffer->info.session = static_cast<uint32_t>(session_index);
        buffer->info.replicate = replicate_index;
        buffer->info.pmdMillivolts = session_config.point.pmdMillivolts;
        buffer->info.socMillivolts = session_config.point.socMillivolts;
        buffer->info.frequencyHz = session_config.point.frequencyHz;
        buffer->info.workloads = session_config.workloadNames;
        session_config.traceSink = buffer.get();
    }
    cpu::XGene2Platform platform(config_.platform);
    TestSession session(&platform, session_config);

    UnitOutcome outcome;
    outcome.result =
        runSession(session, session_index, keyHashes_[session_index],
                   prefix);
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
