/**
 * @file
 * ParallelCampaignRunner implementation.
 */

#include "core/parallel_campaign.hh"

#include <algorithm>
#include <atomic>
#include <thread>

#include "mem/edac_reporter.hh"
#include "mem/memory_system.hh"
#include "sim/bytes.hh"
#include "sim/hash.hh"
#include "sim/logging.hh"
#include "telemetry/metrics.hh"
#include "telemetry/progress.hh"
#include "trace/trace_writer.hh"

namespace xser::core {

uint64_t
campaignConfigHash(const CampaignConfig &config)
{
    // FNV-1a over a fixed-width stream of every field that shapes the
    // simulation (integers widened to u64, doubles as bit patterns,
    // strings u64-length-prefixed).
    ByteWriter stream;
    const mem::MemorySystemConfig &memory = config.platform.memory;
    stream.u64(memory.numCores);
    stream.u64(sizeof(mem::LineData));
    stream.u64(memory.l1iBytes);
    stream.u64(memory.l1dBytes);
    stream.u64(memory.l1dAssociativity);
    stream.u64(memory.l2Bytes);
    stream.u64(memory.l2Associativity);
    stream.u64(memory.l3Bytes);
    stream.u64(memory.l3Associativity);
    stream.u64(memory.tlbWordsPerCore);
    stream.u64(static_cast<uint64_t>(memory.l1Protection));
    stream.u64(static_cast<uint64_t>(memory.l2Protection));
    stream.u64(static_cast<uint64_t>(memory.l3Protection));
    stream.u64(memory.contentSeed);
    stream.u64(config.platform.chipSeed);

    stream.u64(config.sessions.size());
    for (const SessionConfig &session : config.sessions) {
        stream.f64(session.point.pmdMillivolts);
        stream.f64(session.point.socMillivolts);
        stream.f64(session.point.frequencyHz);
        stream.u64(session.maxErrorEvents);
        stream.f64(session.maxFluence);
        stream.f64(session.fluencePerRun);
        stream.u64(session.warmupRounds);
        stream.u64(session.seed);
        stream.u64(session.quantumAccesses);
        stream.u64(session.workloadNames.size());
        for (const std::string &name : session.workloadNames)
            stream.str64(name);
    }
    return fnv1a(stream.data());
}

void
SessionAggregate::add(const SessionResult &session)
{
    if (replicates == 0)
        point = session.point;
    ++replicates;
    runs += session.runs;
    fluence += session.fluence;
    events.merge(session.events);
    upsetsDetected += session.upsetsDetected;
    rawUpsetEvents += session.rawUpsetEvents;
    const FitBreakdown fit = FitCalculator::breakdown(session);
    fitTotal.add(fit.total.fit);
    fitSdc.add(fit.sdc.fit);
    upsetsPerMinute.add(session.upsetsPerMinute());
}

DcsBreakdown
SessionAggregate::pooledDcs(double confidence) const
{
    return DcsCalculator::fromCounts(events, upsetsDetected, fluence,
                                     confidence);
}

FitBreakdown
SessionAggregate::pooledFit(double confidence) const
{
    return FitCalculator::fromCounts(events, fluence, confidence);
}

ReplicatedCampaignResult
mergeUnitOutcomes(const std::vector<UnitOutcome> &units,
                  size_t num_sessions)
{
    const telemetry::ScopedPhase timer(telemetry::Phase::Merge);
    ReplicatedCampaignResult merged;
    merged.replicates.resize(units.size() / num_sessions);
    merged.sessions.resize(num_sessions);
    for (size_t unit = 0; unit < units.size(); ++unit) {
        const SessionResult &result = units[unit].result;
        merged.replicates[unit / num_sessions].sessions.push_back(result);
        merged.sessions[unit % num_sessions].add(result);
    }
    return merged;
}

std::string
encodeCampaignTrace(const CampaignConfig &config, uint64_t seed,
                    const std::vector<UnitOutcome> &units)
{
    // The array table is a pure function of the platform config; a
    // throwaway hierarchy provides it.
    mem::EdacReporter reporter;
    mem::MemorySystem memory(config.platform.memory, &reporter);
    std::string file = trace::TraceWriter::encodeHeader(
        seed, campaignConfigHash(config), memory.traceArrayTable(),
        units.size());
    for (const UnitOutcome &unit : units) {
        telemetry::count(telemetry::Counter::TraceEventsMerged,
                         unit.traceEventCount);
        file += unit.traceBytes;
    }
    return file;
}

ParallelCampaignRunner::ParallelCampaignRunner(
    const CampaignConfig &config, const ParallelRunConfig &run)
    : config_(config), run_(run)
{
    if (config_.sessions.empty())
        fatal("parallel campaign needs at least one session");
    if (run_.replicates == 0)
        fatal("parallel campaign needs at least one replicate");
    if (run_.jobs == 0)
        run_.jobs = 1;
    if (run_.metrics != nullptr &&
        run_.metrics->shardCount() < run_.jobs)
        fatal(msg("metric registry has ", run_.metrics->shardCount(),
                  " shards but the pool may run ", run_.jobs,
                  " workers; size the registry to --jobs"));
}

size_t
ParallelCampaignRunner::taskCount() const
{
    return config_.sessions.size() * run_.replicates + 1;
}

ReplicatedCampaignResult
ParallelCampaignRunner::executeAll(trace::TraceWriter *trace_writer)
{
    const size_t num_sessions = config_.sessions.size();
    const size_t units = num_sessions * run_.replicates;
    const bool tracing = trace_writer != nullptr;
    const ShardExecutor executor(config_, run_.seed,
                                 tracing ? run_.traceBufferEvents : 0);

    // The calling thread records into shard 0 for the serial phases
    // (trace write, merge) and the inline pool path; pool workers
    // install their own shard below. Null when telemetry is off.
    const telemetry::ShardScope caller_scope(
        run_.metrics != nullptr ? &run_.metrics->shard(0) : nullptr);

    // Atomic-cursor worker pool over `n` index-keyed tasks; results
    // always land in pre-sized slots keyed by index, so worker
    // scheduling can never reorder them. Worker w records telemetry
    // into shard w -- shards are never shared, and the registry merge
    // walks them in index order, so the merged counters are the same
    // for any worker count or schedule. A lone task still runs on a
    // pool thread when jobs > 1: a campaign's single seal frees its
    // platform into that thread's glibc malloc arena, where the
    // phase-2 unit on that thread builds its platform; freed into the
    // caller's arena, which runs no unit, it stayed resident (e2ebench
    // paper_local peak RSS 230 MB vs 201 MB, 4-vCPU x86-64 Linux
    // host).
    auto run_pool = [this](size_t n, const auto &task) {
        const size_t workers = std::min<size_t>(run_.jobs, n);
        if (run_.jobs <= 1) {
            for (size_t i = 0; i < n; ++i)
                task(i);
            return;
        }
        std::atomic<size_t> cursor{0};
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (size_t i = 0; i < workers; ++i) {
            pool.emplace_back([&, i]() {
                const telemetry::ShardScope scope(
                    run_.metrics != nullptr
                        ? &run_.metrics->shard(i)
                        : nullptr);
                for (;;) {
                    const size_t index =
                        cursor.fetch_add(1, std::memory_order_relaxed);
                    if (index >= n)
                        return;
                    task(index);
                }
            });
        }
        for (auto &thread : pool)
            thread.join();
    };

    // Phase 1: the campaign's one golden prefix, captured as an
    // image. The prefix is a function of its key alone (see
    // core/golden_prefix.hh), and every session shares the key, so one
    // image serves every unit -- this is what importance splitting
    // buys: the prefix is paid once per campaign instead of once per
    // unit.
    GoldenImage prefix;
    run_pool(1, [&](size_t) {
        prefix = executor.sealPrefix();
        if (run_.progress != nullptr)
            run_.progress->tick();
    });

    // Phase 2: the (session, replicate) units, each a continuation
    // forked from the prefix.
    std::vector<UnitOutcome> outcomes(units);
    run_pool(units, [&](size_t unit) {
        outcomes[unit] = executor.runUnit(
            unit % num_sessions,
            static_cast<unsigned>(unit / num_sessions), prefix);
        if (run_.progress != nullptr)
            run_.progress->tick();
    });

    if (trace_writer != nullptr) {
        const telemetry::ScopedPhase timer(
            telemetry::Phase::TraceWrite);
        trace_writer->write(
            encodeCampaignTrace(config_, run_.seed, outcomes));
    }
    return mergeUnitOutcomes(outcomes, num_sessions);
}

} // namespace xser::core
