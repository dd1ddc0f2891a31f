/**
 * @file
 * GoldenPrefix implementation.
 */

#include "core/golden_prefix.hh"

#include "core/checkpoint.hh"
#include "sim/hash.hh"
#include "sim/logging.hh"

namespace xser::core {

uint64_t
prefixKeyHash(const PrefixKey &key)
{
    // Same stream conventions as campaignConfigHash: integers widened
    // to u64, doubles as bit patterns, strings u64-length-prefixed.
    ByteWriter stream;
    stream.u64(checkpointVersion);
    const mem::MemorySystemConfig &memory = key.platform.memory;
    stream.u64(memory.numCores);
    stream.u64(memory.lineBytes);
    stream.u64(memory.l1iBytes);
    stream.u64(memory.l1dBytes);
    stream.u64(memory.l1dAssociativity);
    stream.u64(memory.l2Bytes);
    stream.u64(memory.l2Associativity);
    stream.u64(memory.l3Bytes);
    stream.u64(memory.l3Associativity);
    stream.u64(memory.tlbWordsPerCore);
    stream.u64(memory.l1HitCycles);
    stream.u64(memory.l2HitCycles);
    stream.u64(memory.l3HitCycles);
    stream.u64(memory.dramCycles);
    stream.u64(memory.contentSeed);
    stream.u64(static_cast<uint64_t>(memory.l1Protection));
    stream.u64(static_cast<uint64_t>(memory.l2Protection));
    stream.u64(static_cast<uint64_t>(memory.l3Protection));
    // Raw images differ between fast-path modes (lazy check bits).
    stream.u64(memory.fastPath ? 1 : 0);
    stream.u64(key.platform.chipSeed);
    const cpu::CoreConfig &core = key.platform.coreTemplate;
    stream.f64(core.ifetchTouchesPerAccess);
    stream.f64(core.tlbTouchesPerAccess);
    stream.f64(core.ifetchReplaceFraction);
    stream.f64(core.tlbReplaceFraction);
    stream.u64(key.quantumAccesses);
    stream.u64(key.workloadNames.size());
    for (const std::string &name : key.workloadNames)
        stream.str64(name);
    return fnv1a(stream.data());
}

void
GoldenPrefix::run(cpu::XGene2Platform &platform, const PrefixKey &key)
{
    XSER_ASSERT(suite_.empty(), "golden prefix already ran");
    auto &memory = platform.memory();
    platform.edac().clear();
    memory.clearDeliveryCounters();
    memory.clearCycles();

    // The prefix quantum hook: no beam exists yet (the golden phase is
    // beam-off by definition) and no clock or scrubber either -- the
    // quantum's cycles go into the timeline for the seam to replay.
    // Front-end traffic advances as in the measured phase.
    auto quantum = [&]() {
        quantumCycles_.push_back(memory.cyclesAccumulated());
        memory.clearCycles();
        platform.driveFrontEnd(key.quantumAccesses / platform.numCores());
    };

    // Build the suite and record golden references (beam off).
    // Workload setup is a pure function of the workload name and the
    // front-end streams advance from chipSeed-derived state, so the
    // whole loop is a function of the key.
    for (const auto &name : key.workloadNames) {
        suite_.push_back(workloads::makeWorkload(name));
        auto &workload = *suite_.back();
        workloads::RunContext ctx(&memory, quantum, key.quantumAccesses);
        platform.setWorkloadFootprint(
            workload.traits().codeFootprintWords,
            workload.traits().tlbFootprintEntries);
        workload.setUp(ctx);
        Span span;
        span.begin = quantumCycles_.size();
        workloads::WorkloadOutput golden = workload.run(ctx);
        quantum();  // flush the run's residual cycles
        span.end = quantumCycles_.size();
        control_.setGolden(name, golden);
        goldenRuns_.push_back(span);
        activitySum_ += workload.traits().activityFactor;
    }

    // Drop the warm cache state the setup/golden phase left behind:
    // the freshly written datasets would otherwise sit L3-resident and
    // distort early-session detection rates.
    memory.flushAll();
}

void
GoldenPrefix::visit(Archive &ar, cpu::XGene2Platform &platform,
                    const PrefixKey &key)
{
    if (ar.loading()) {
        XSER_ASSERT(suite_.empty(), "golden prefix already ran");
        // The EDAC reporter is provably empty at the seam (no beam
        // ran), so it is cleared rather than serialized.
        platform.edac().clear();
        for (const auto &name : key.workloadNames)
            suite_.push_back(workloads::makeWorkload(name));
        goldenRuns_.resize(suite_.size());
    } else {
        XSER_ASSERT(goldenRuns_.size() == key.workloadNames.size(),
                    "saving a golden prefix needs a completed one");
    }
    platform.visit(ar);
    uint64_t workloads = suite_.size();
    ar.u64(workloads);
    XSER_ASSERT(workloads == suite_.size(),
                "snapshot workload count mismatch restoring prefix");
    for (const auto &workload : suite_)
        workload->visit(ar, platform.memory());
    ar.f64(activitySum_);
    control_.visit(ar);
    ar.words(quantumCycles_);
    for (Span &span : goldenRuns_) {
        ar.u64(span.begin);
        ar.u64(span.end);
        if (span.begin > span.end || span.end > quantumCycles_.size())
            ar.reject("golden run outside the quantum timeline");
    }
}

std::vector<double>
GoldenPrefix::replay(cpu::XGene2Platform &platform,
                     mem::Scrubber &scrubber) const
{
    // The clock after each quantum, so every golden run's length is
    // the difference of two replayed positions -- the same ticks a
    // timed prefix read off the clock.
    std::vector<Tick> after(quantumCycles_.size() + 1);
    after[0] = platform.clock().now();
    for (size_t q = 0; q < quantumCycles_.size(); ++q) {
        scrubber.advance(platform.advanceForCycles(quantumCycles_[q]));
        after[q + 1] = platform.clock().now();
    }
    std::vector<double> run_seconds;
    run_seconds.reserve(goldenRuns_.size());
    for (const Span &span : goldenRuns_)
        run_seconds.push_back(
            ticks::toSeconds(after[span.end] - after[span.begin]));
    return run_seconds;
}

} // namespace xser::core
