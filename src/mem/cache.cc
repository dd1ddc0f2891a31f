/**
 * @file
 * Cache implementation.
 */

#include "mem/cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace xser::mem {

Cache::Cache(const CacheConfig &config, EdacReporter *reporter)
    : config_(config),
      geometry_(config.sizeBytes, sizeof(LineData), config.associativity),
      reporter_(reporter),
      dataArray_(config.name + ".data",
                 geometry_.numLines() * geometry_.wordsPerLine(),
                 config.protection)
{
    XSER_ASSERT(reporter_ != nullptr, "cache needs an EDAC reporter");
    meta_.resize(geometry_.numLines());
    filter_.assign(size_t{1} << filterBucketBits, 0);
}

unsigned
Cache::victimWay(size_t set) const
{
    unsigned victim = 0;
    uint64_t oldest = UINT64_MAX;
    for (unsigned way = 0; way < config_.associativity; ++way) {
        const auto &line = meta_[set * config_.associativity + way];
        if (!line.valid)
            return way;
        if (line.lastUse < oldest) {
            oldest = line.lastUse;
            victim = way;
        }
    }
    return victim;
}

void
Cache::postEdac(const ReadOutcome &outcome)
{
    if (ecc::reportsCorrected(outcome.status)) {
        reporter_->post(now(), config_.level, EdacKind::Corrected,
                        config_.name);
    } else if (ecc::reportsUncorrected(outcome.status)) {
        reporter_->post(now(), config_.level, EdacKind::Uncorrected,
                        config_.name);
    } else if (outcome.status == ecc::CheckStatus::ParityError &&
               config_.writePolicy == WritePolicy::WriteBack) {
        // Parity on a write-back array (ablation configuration only):
        // detected but uncorrectable -- the dirty data has no second
        // copy. Logged as a UE.
        reporter_->post(now(), config_.level, EdacKind::Uncorrected,
                        config_.name);
    }
    // In write-through arrays parity errors are posted by the recovery
    // path in MemorySystem once the refetch succeeds (logged as
    // corrected upsets there), so nothing to do for them here.
}

bool
Cache::outcomeUncorrectable(const ReadOutcome &outcome) const
{
    if (ecc::reportsUncorrected(outcome.status))
        return true;
    return outcome.status == ecc::CheckStatus::ParityError &&
           config_.writePolicy == WritePolicy::WriteBack;
}

bool
Cache::isDirty(Addr addr) const
{
    const int way = findWay(addr);
    if (way < 0)
        return false;
    return wayDirty(addr, way);
}

void
Cache::writeLine(Addr addr, const LineData &line, int way)
{
    XSER_ASSERT(way >= 0, msg("writeLine miss in ", config_.name));
    const size_t set = geometry_.setIndex(addr);
    auto &slot = meta_[set * config_.associativity + way];
    useCounter_ += lineWords;
    slot.lastUse = useCounter_;
    if (config_.writePolicy == WritePolicy::WriteBack)
        slot.dirty = true;
    dataArray_.writeLine(lineWordBase(set, way), line);
}

bool
Cache::readOut(size_t base, LineData &out)
{
    bool uncorrectable = false;
    dataArray_.readLine(base, out, [&](const ReadOutcome &outcome) {
        postEdac(outcome);
        if (outcomeUncorrectable(outcome))
            uncorrectable = true;
    });
    return uncorrectable;
}

bool
Cache::readLine(Addr addr, LineData &out, int way)
{
    XSER_ASSERT(way >= 0, msg("readLine miss in ", config_.name));
    const size_t set = geometry_.setIndex(addr);
    auto &line = meta_[set * config_.associativity + way];
    line.lastUse = ++useCounter_;
    return readOut(lineWordBase(set, way), out);
}

EvictedLine
Cache::allocate(Addr addr, const LineData &line, bool dirty)
{
    const size_t set = geometry_.setIndex(addr);
    // A present line always has a nonzero filter bucket, so the cheap
    // filter test screens the double-allocate invariant without a tag
    // search on the (overwhelmingly common) definitely-absent case.
    XSER_ASSERT(!mayContain(addr) || findWay(addr) < 0,
                msg("allocate of already-present line in ", config_.name));

    const unsigned way = victimWay(set);
    auto &slot = meta_[set * config_.associativity + way];

    EvictedLine evicted;
    if (slot.valid) {
        ++stats_.evictions;
        evicted.valid = true;
        evicted.dirty = slot.dirty;
        evicted.address = geometry_.lineAddress(slot.tag, set);
        if (slot.dirty) {
            // Checked read-out: a writeback passes through the codec.
            evicted.hadUncorrectable =
                readOut(lineWordBase(set, way), evicted.data);
            ++stats_.writebacks;
        }
    }

    if (evicted.valid)
        filterRemove(evicted.address);
    filterAdd(addr);
    slot.tag = geometry_.tag(addr);
    slot.valid = true;
    slot.dirty = dirty;
    slot.lastUse = ++useCounter_;

    dataArray_.writeLine(lineWordBase(set, way), line);
    return evicted;
}

void
Cache::invalidate(Addr addr)
{
    const int way = findWay(addr);
    if (way < 0)
        return;
    invalidateWay(addr, way);
}

void
Cache::invalidateWay(Addr addr, int way)
{
    const size_t set = geometry_.setIndex(addr);
    auto &line = meta_[set * config_.associativity +
                       static_cast<unsigned>(way)];
    line.valid = false;
    line.dirty = false;
    filterRemove(addr);
    ++stats_.invalidations;
}

void
Cache::invalidateAll()
{
    for (auto &line : meta_) {
        line.valid = false;
        line.dirty = false;
    }
    std::fill(filter_.begin(), filter_.end(), 0);
}

Cache::ScrubResult
Cache::scrubLine(size_t line_index)
{
    XSER_ASSERT(line_index < meta_.size(), "scrub index out of range");
    ScrubResult result;
    auto &slot = meta_[line_index];
    if (!slot.valid)
        return result;
    result.scanned = true;
    result.dirty = slot.dirty;

    const size_t set = line_index / config_.associativity;
    const unsigned way =
        static_cast<unsigned>(line_index % config_.associativity);
    result.address = geometry_.lineAddress(slot.tag, set);

    const size_t base = lineWordBase(set, way);
    if (dataArray_.fastPath() && !dataArray_.lineCorrupt(base)) {
        // A patrol pass over a clean line is pure reads of clean words:
        // no EDAC posting, no trace, no invalidation, and the read-out
        // data is only consumed on a dirty uncorrectable hit -- which a
        // clean line cannot be. Skip the scan entirely.
        return result;
    }
    bool found_error = false;
    for (size_t i = 0; i < lineWords; ++i) {
        ReadOutcome outcome = dataArray_.read(base + i);
        postEdac(outcome);
        if (outcomeUncorrectable(outcome))
            result.uncorrectable = true;
        if (outcome.status != ecc::CheckStatus::Clean ||
            outcome.silentCorruption)
            found_error = true;
        result.data[i] = outcome.value;
    }
    if (found_error && dataArray_.traceSink()) {
        // One Scrub record per non-clean line found by the patrol scan
        // (the word-level detections above carry the details).
        dataArray_.traceSink()->record(
            {trace::EventType::Scrub, dataArray_.now(),
             dataArray_.traceId(), static_cast<uint64_t>(base),
             trace::noBit, result.uncorrectable ? 1u : 0u});
    }
    if (result.uncorrectable) {
        // Poisoned line: drop it so it cannot re-report every pass. The
        // owner writes dirty data (corrupt as it is) downstream.
        slot.valid = false;
        slot.dirty = false;
        filterRemove(result.address);
        ++stats_.invalidations;
    }
    return result;
}

std::vector<std::pair<Addr, LineData>>
Cache::drainAll()
{
    std::vector<std::pair<Addr, LineData>> dirty_lines;
    for (size_t index = 0; index < meta_.size(); ++index) {
        auto &slot = meta_[index];
        if (!slot.valid)
            continue;
        if (slot.dirty) {
            const size_t set = index / config_.associativity;
            const unsigned way =
                static_cast<unsigned>(index % config_.associativity);
            dirty_lines.emplace_back(geometry_.lineAddress(slot.tag, set),
                                     LineData{});
            readOut(lineWordBase(set, way), dirty_lines.back().second);
            ++stats_.writebacks;
        }
        slot.valid = false;
        slot.dirty = false;
    }
    std::fill(filter_.begin(), filter_.end(), 0);
    return dirty_lines;
}

double
Cache::occupancy() const
{
    size_t valid = 0;
    for (const auto &line : meta_)
        valid += line.valid ? 1 : 0;
    return static_cast<double>(valid) /
           static_cast<double>(meta_.size());
}

void
Cache::visit(Archive &ar)
{
    uint64_t lines = meta_.size();
    ar.u64(lines);
    XSER_ASSERT(lines == meta_.size(),
                msg("snapshot shape mismatch restoring ", config_.name));
    if (ar.loading())
        std::fill(filter_.begin(), filter_.end(), 0);
    for (size_t index = 0; index < meta_.size(); ++index) {
        auto &line = meta_[index];
        ar.u64(line.tag);
        auto flags = static_cast<uint8_t>((line.valid ? 1u : 0u) |
                                          (line.dirty ? 2u : 0u));
        ar.u8(flags);
        ar.u64(line.lastUse);
        if (!ar.loading())
            continue;
        line.valid = (flags & 1u) != 0;
        line.dirty = (flags & 2u) != 0;
        // The residency filter is a pure function of the valid lines;
        // rebuilding it here keeps it exact without serializing it.
        if (line.valid)
            filterAdd(geometry_.lineAddress(
                line.tag, index / config_.associativity));
    }
    ar.u64(useCounter_);
    ar.u64(stats_.hits);
    ar.u64(stats_.misses);
    ar.u64(stats_.evictions);
    ar.u64(stats_.writebacks);
    ar.u64(stats_.invalidations);
    dataArray_.visit(ar);
}

} // namespace xser::mem
