/**
 * @file
 * MemorySystem implementation.
 */

#include "mem/memory_system.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "telemetry/metrics.hh"

namespace xser::mem {

namespace {

constexpr Addr pageBytes = 4096;
constexpr size_t pageWords = pageBytes / 8;

inline Addr
pageBase(Addr addr)
{
    return addr & ~(pageBytes - 1);
}

inline size_t
pageWord(Addr addr)
{
    return static_cast<size_t>((addr & (pageBytes - 1)) >> 3);
}

} // namespace

MemorySystem::MemorySystem(const MemorySystemConfig &config,
                           EdacReporter *reporter)
    : config_(config), reporter_(reporter)
{
    XSER_ASSERT(reporter_ != nullptr, "memory system needs a reporter");
    if (config_.numCores == 0 || config_.numCores % 2 != 0)
        fatal(msg("core count must be a positive even number, got ",
                  config_.numCores));

    for (unsigned core = 0; core < config_.numCores; ++core) {
        CacheConfig l1;
        l1.name = msg("l1d.", core);
        l1.sizeBytes = config_.l1dBytes;
        l1.lineBytes = config_.lineBytes;
        l1.associativity = config_.l1dAssociativity;
        l1.protection = config_.l1Protection;
        l1.writePolicy = WritePolicy::WriteThrough;
        l1.level = CacheLevel::L1;
        l1d_.push_back(std::make_unique<Cache>(l1, reporter_));

        l1i_.push_back(std::make_unique<RefetchableArray>(
            msg("l1i.", core), config_.l1iBytes / 8, CacheLevel::L1,
            reporter_, config_.contentSeed ^ (0x1111ULL * (core + 1))));
        tlb_.push_back(std::make_unique<RefetchableArray>(
            msg("tlb.", core), config_.tlbWordsPerCore, CacheLevel::Tlb,
            reporter_, config_.contentSeed ^ (0x2222ULL * (core + 1))));
    }

    const unsigned pairs = config_.numCores / 2;
    for (unsigned pair = 0; pair < pairs; ++pair) {
        CacheConfig l2;
        l2.name = msg("l2.", pair);
        l2.sizeBytes = config_.l2Bytes;
        l2.lineBytes = config_.lineBytes;
        l2.associativity = config_.l2Associativity;
        l2.protection = config_.l2Protection;
        l2.writePolicy = WritePolicy::WriteBack;
        l2.level = CacheLevel::L2;
        l2_.push_back(std::make_unique<Cache>(l2, reporter_));
    }

    CacheConfig l3;
    l3.name = "l3";
    l3.sizeBytes = config_.l3Bytes;
    l3.lineBytes = config_.lineBytes;
    l3.associativity = config_.l3Associativity;
    l3.protection = config_.l3Protection;
    l3.writePolicy = WritePolicy::WriteBack;
    l3.level = CacheLevel::L3;
    l3_ = std::make_unique<Cache>(l3, reporter_);

    for (BeamTarget &target : beamTargets())
        target.array->setFastPath(config_.fastPath);
}

void
MemorySystem::setTimeSource(const Tick *now)
{
    now_ = now;
    for (auto &cache : l1d_)
        cache->setTimeSource(now);
    for (auto &cache : l2_)
        cache->setTimeSource(now);
    l3_->setTimeSource(now);
    for (auto &array : l1i_)
        array->setTimeSource(now);
    for (auto &array : tlb_)
        array->setTimeSource(now);
}

void
MemorySystem::setTraceSink(trace::TraceSink *sink)
{
    traceSink_ = sink;
    uint32_t id = 0;
    for (BeamTarget &target : beamTargets()) {
        target.array->setTrace(sink, sink ? id : trace::noArray);
        if (sink)
            sink->registerArray(id, static_cast<uint8_t>(target.level));
        ++id;
    }
}

std::vector<trace::TraceArrayInfo>
MemorySystem::traceArrayTable() const
{
    std::vector<trace::TraceArrayInfo> table;
    auto add_array = [&table](const SramArray &array, CacheLevel level) {
        table.push_back({array.name(), static_cast<uint8_t>(level), 0, 0,
                         static_cast<uint64_t>(array.words())});
    };
    auto add_cache = [&table](const Cache &cache) {
        table.push_back(
            {cache.dataArray().name(),
             static_cast<uint8_t>(cache.config().level),
             static_cast<uint32_t>(cache.geometry().wordsPerLine()),
             cache.config().associativity,
             static_cast<uint64_t>(cache.dataArray().words())});
    };
    for (const auto &array : l1i_)
        add_array(array->array(), CacheLevel::L1);
    for (const auto &cache : l1d_)
        add_cache(*cache);
    for (const auto &array : tlb_)
        add_array(array->array(), CacheLevel::Tlb);
    for (const auto &cache : l2_)
        add_cache(*cache);
    add_cache(*l3_);
    return table;
}

Cache &
MemorySystem::l1d(unsigned core)
{
    XSER_ASSERT(core < l1d_.size(), "core index out of range");
    return *l1d_[core];
}

Cache &
MemorySystem::l2(unsigned pair)
{
    XSER_ASSERT(pair < l2_.size(), "pair index out of range");
    return *l2_[pair];
}

RefetchableArray &
MemorySystem::l1i(unsigned core)
{
    XSER_ASSERT(core < l1i_.size(), "core index out of range");
    return *l1i_[core];
}

RefetchableArray &
MemorySystem::tlb(unsigned core)
{
    XSER_ASSERT(core < tlb_.size(), "core index out of range");
    return *tlb_[core];
}

Addr
MemorySystem::allocate(size_t bytes, const std::string &tag)
{
    if (bytes == 0)
        fatal(msg("zero-byte allocation for '", tag, "'"));
    const Addr base = heapNext_;
    heapNext_ = (heapNext_ + bytes + config_.lineBytes - 1) &
                ~static_cast<Addr>(config_.lineBytes - 1);
    return base;
}

void
MemorySystem::resetHeap()
{
    dramPages_.clear();
    goldenBytes_.reset();
    heapNext_ = 0x10000;
    for (auto &cache : l1d_)
        cache->invalidateAll();
    for (auto &cache : l2_)
        cache->invalidateAll();
    l3_->invalidateAll();
}

// Lines never straddle pages (both are powers of two with lineBytes <=
// pageBytes), so one page lookup serves a whole line.

void
MemorySystem::dramReadLine(Addr line_addr, std::vector<uint64_t> &out)
{
    const size_t words = config_.lineBytes / 8;
    out.resize(words);
    DramPage &page = dramPages_[pageBase(line_addr)];
    if (!page.golden.empty()) {
        page.golden.copy(pageWord(line_addr), words, out.data());
        return;
    }
    if (page.words.empty())
        page.words.assign(pageWords, 0);
    std::copy_n(&page.words[pageWord(line_addr)], words, out.data());
}

void
MemorySystem::dramWriteLine(Addr line_addr,
                            const std::vector<uint64_t> &line)
{
    DramPage &page = dramPages_[pageBase(line_addr)];
    if (page.words.empty()) {
        page.words.resize(pageWords);
        if (!page.golden.empty()) {
            // First write to a borrowed page: copy it out of the image,
            // which every hierarchy loaded from it still reads.
            page.golden.copy(0, pageWords, page.words.data());
            page.golden = WordView();
            telemetry::count(telemetry::Counter::DramPagesCopied);
        }
    }
    std::copy(line.begin(), line.end(), &page.words[pageWord(line_addr)]);
}

void
MemorySystem::snoopOtherL2s(unsigned writing_pair, Addr line_addr)
{
    for (unsigned pair = 0; pair < l2_.size(); ++pair) {
        if (pair == writing_pair)
            continue;
        Cache &other = *l2_[pair];
        telemetry::count(telemetry::Counter::SnoopProbes);
        // Residency-filter early-out: a zero bucket count proves the
        // line absent, so the snoop is a no-op without a tag search.
        if (config_.fastPath && !other.mayContain(line_addr)) {
            telemetry::count(telemetry::Counter::SnoopsFiltered);
            continue;
        }
        const int way = other.findWay(line_addr);
        if (way < 0)
            continue;
        if (other.wayDirty(line_addr, way)) {
            std::vector<uint64_t> line;
            other.readLine(line_addr, line, way);
            writeLineToL3(line_addr, line);
        }
        other.invalidateWay(line_addr, way);
    }
}

void
MemorySystem::installL3(Addr line_addr, const std::vector<uint64_t> &line,
                        bool dirty)
{
    EvictedLine victim = l3_->allocate(line_addr, line, dirty);
    if (victim.valid && victim.dirty)
        dramWriteLine(victim.address, victim.data);
}

void
MemorySystem::writeLineToL3(Addr line_addr,
                            const std::vector<uint64_t> &line)
{
    const int way = l3_->findWay(line_addr);
    if (way >= 0) {
        for (size_t i = 0; i < line.size(); ++i)
            l3_->writeWord(line_addr + 8 * i, line[i], way);
        return;
    }
    installL3(line_addr, line, true);
}

void
MemorySystem::readLineFromL3(Addr line_addr, std::vector<uint64_t> &out)
{
    cycles_ += config_.l3HitCycles;
    const int way = l3_->findWay(line_addr);
    if (way < 0) {
        l3_->recordMiss();
        cycles_ += config_.dramCycles;
        dramReadLine(line_addr, out);
        installL3(line_addr, out, false);
        return;
    }
    l3_->recordHit();
    const bool uncorrectable = l3_->readLine(line_addr, out, way);
    if (uncorrectable) {
        if (!l3_->wayDirty(line_addr, way)) {
            // Clean poisoned line: DRAM still has the truth.
            l3_->invalidateWay(line_addr, way);
            cycles_ += config_.dramCycles;
            dramReadLine(line_addr, out);
            installL3(line_addr, out, false);
        } else {
            // Dirty poisoned line: nothing better exists; the corrupt
            // data propagates (possible SDC downstream).
            ++delivery_.dirtyUeDeliveries;
            if (traceSink_) {
                traceSink_->record({trace::EventType::Propagate,
                                    now_ ? *now_ : 0,
                                    l3_->dataArray().traceId(),
                                    trace::noWord, trace::noBit, 1});
            }
        }
    }
}

void
MemorySystem::installL2(unsigned pair, Addr line_addr,
                        const std::vector<uint64_t> &line, bool dirty)
{
    EvictedLine victim = l2_[pair]->allocate(line_addr, line, dirty);
    if (victim.valid && victim.dirty)
        writeLineToL3(victim.address, victim.data);
}

void
MemorySystem::readLineFromL2(unsigned core, Addr line_addr,
                             std::vector<uint64_t> &out)
{
    const unsigned pair = core / 2;
    Cache &cache = *l2_[pair];
    cycles_ += config_.l2HitCycles;
    const int way = cache.findWay(line_addr);
    if (way < 0) {
        cache.recordMiss();
        // A sibling pair may hold a newer dirty copy; push it to L3
        // before reading the L3 level.
        snoopOtherL2s(pair, line_addr);
        readLineFromL3(line_addr, out);
        installL2(pair, line_addr, out, false);
        return;
    }
    cache.recordHit();
    const bool uncorrectable = cache.readLine(line_addr, out, way);
    if (uncorrectable) {
        if (!cache.wayDirty(line_addr, way)) {
            cache.invalidateWay(line_addr, way);
            readLineFromL3(line_addr, out);
            installL2(pair, line_addr, out, false);
        } else {
            ++delivery_.dirtyUeDeliveries;
            if (traceSink_) {
                traceSink_->record({trace::EventType::Propagate,
                                    now_ ? *now_ : 0,
                                    cache.dataArray().traceId(),
                                    trace::noWord, trace::noBit, 1});
            }
        }
    }
}

uint64_t
MemorySystem::readWord(unsigned core, Addr addr)
{
    XSER_ASSERT((addr & 7) == 0, "word access must be 8-byte aligned");
    ++accesses_;
    cycles_ += config_.l1HitCycles;

    Cache &l1 = *l1d_[core];
    const Addr line_addr = l1.geometry().lineBase(addr);
    const size_t offset = l1.geometry().wordOffset(addr);

    const int way = l1.findWay(addr);
    if (way >= 0) {
        l1.recordHit();
        ReadOutcome outcome = l1.readWord(addr, way);
        if (outcome.status != ecc::CheckStatus::ParityError)
            return outcome.value;
        // Parity error: invalidate + refetch; write-through means the
        // level below is authoritative, so this is always recoverable.
        l1.invalidateWay(addr, way);
        reporter_->post(now_ ? *now_ : 0, CacheLevel::L1,
                        EdacKind::Corrected, l1.name());
        ++delivery_.parityRefetches;
    } else {
        l1.recordMiss();
    }

    readLineFromL2(core, line_addr, lineScratch_);
    l1.allocate(addr, lineScratch_, false);
    return lineScratch_[offset];
}

void
MemorySystem::writeWord(unsigned core, Addr addr, uint64_t value)
{
    XSER_ASSERT((addr & 7) == 0, "word access must be 8-byte aligned");
    ++accesses_;
    cycles_ += config_.l1HitCycles;

    Cache &l1 = *l1d_[core];
    const Addr line_addr = l1.geometry().lineBase(addr);

    const int l1_way = l1.findWay(addr);
    if (l1_way >= 0)
        l1.writeWord(addr, value, l1_way);

    // Write-invalidate coherence over the other cores' L1Ds. The
    // residency filter turns the common no-sharer case into one load
    // per core instead of a tag search.
    for (unsigned other = 0; other < l1d_.size(); ++other) {
        if (other == core)
            continue;
        Cache &other_l1 = *l1d_[other];
        if (config_.fastPath && !other_l1.mayContain(addr))
            continue;
        const int other_way = other_l1.findWay(addr);
        if (other_way >= 0)
            other_l1.invalidateWay(addr, other_way);
    }

    // Write-through into the (write-back, write-allocate) L2. A line
    // its own L2 already holds is in no other L2 (the single-owner
    // invariant, see the header), so only a miss needs the snoop; the
    // reference path snoops every write, which proves the skip
    // unobservable.
    const unsigned pair = core / 2;
    Cache &cache = *l2_[pair];
    int l2_way = cache.findWay(addr);
    if (l2_way < 0 || !config_.fastPath)
        snoopOtherL2s(pair, line_addr);
    if (l2_way < 0) {
        cache.recordMiss();
        readLineFromL3(line_addr, lineScratch_);
        installL2(pair, line_addr, lineScratch_, false);
        l2_way = cache.findWay(addr);
    } else {
        cache.recordHit();
    }
    cache.writeWord(addr, value, l2_way);
}

void
MemorySystem::touchIFetch(unsigned core, size_t word_index)
{
    RefetchableArray &array = *l1i_[core];
    array.touch(word_index % array.words());
}

void
MemorySystem::touchTlb(unsigned core, size_t word_index)
{
    RefetchableArray &array = *tlb_[core];
    array.touch(word_index % array.words());
}

void
MemorySystem::scrub(size_t l2_lines, size_t l3_lines)
{
    // Patrolling a fully clean array is observably a no-op (clean-line
    // scrubs touch nothing, see Cache::scrubLine), so when every array
    // of a level is clean the round-robin cursor can jump arithmetically
    // instead of walking line by line.
    const size_t l2_total = l2_.empty() ? 0
        : l2_[0]->geometry().numLines();
    bool l2_all_clean = config_.fastPath;
    for (auto &cache : l2_)
        l2_all_clean = l2_all_clean && cache->arrayClean();
    if (l2_all_clean && l2_total > 0) {
        l2ScrubCursor_ = (l2ScrubCursor_ + l2_lines) % l2_total;
    } else {
        for (size_t step = 0; step < l2_lines && l2_total > 0; ++step) {
            const size_t index = l2ScrubCursor_;
            l2ScrubCursor_ = (l2ScrubCursor_ + 1) % l2_total;
            for (auto &cache : l2_) {
                Cache::ScrubResult result = cache->scrubLine(index);
                if (result.uncorrectable && result.dirty)
                    writeLineToL3(result.address, result.data);
            }
        }
    }
    const size_t l3_total = l3_->geometry().numLines();
    if (config_.fastPath && l3_->arrayClean() && l3_total > 0) {
        l3ScrubCursor_ = (l3ScrubCursor_ + l3_lines) % l3_total;
    } else {
        for (size_t step = 0; step < l3_lines && l3_total > 0; ++step) {
            const size_t index = l3ScrubCursor_;
            l3ScrubCursor_ = (l3ScrubCursor_ + 1) % l3_total;
            Cache::ScrubResult result = l3_->scrubLine(index);
            if (result.uncorrectable && result.dirty)
                dramWriteLine(result.address, result.data);
        }
    }
}

void
MemorySystem::flushAll()
{
    for (auto &cache : l1d_)
        cache->invalidateAll();  // write-through: never dirty
    for (auto &cache : l2_) {
        for (auto &[addr, line] : cache->drainAll())
            writeLineToL3(addr, line);
    }
    for (auto &[addr, line] : l3_->drainAll())
        dramWriteLine(addr, line);
}

std::vector<BeamTarget>
MemorySystem::beamTargets()
{
    std::vector<BeamTarget> targets;
    for (auto &array : l1i_)
        targets.push_back({&array->array(), CacheLevel::L1, true});
    for (auto &cache : l1d_)
        targets.push_back({&cache->dataArray(), CacheLevel::L1, true});
    for (auto &array : tlb_)
        targets.push_back({&array->array(), CacheLevel::Tlb, true});
    for (auto &cache : l2_)
        targets.push_back({&cache->dataArray(), CacheLevel::L2, true});
    targets.push_back({&l3_->dataArray(), CacheLevel::L3, false});
    return targets;
}

void
MemorySystem::visit(Archive &ar)
{
    uint64_t cores = config_.numCores;
    ar.u64(cores);
    XSER_ASSERT(cores == config_.numCores,
                "snapshot core count mismatch restoring memory system");
    ar.u64(heapNext_);
    ar.u64(cycles_);
    ar.u64(accesses_);
    ar.u64(delivery_.parityRefetches);
    ar.u64(delivery_.dirtyUeDeliveries);
    ar.u64(l2ScrubCursor_);
    ar.u64(l3ScrubCursor_);

    for (auto &cache : l1d_)
        cache->visit(ar);
    for (auto &cache : l2_)
        cache->visit(ar);
    l3_->visit(ar);
    for (auto &array : l1i_)
        array->visit(ar);
    for (auto &array : tlb_)
        array->visit(ar);

    // DRAM pages in ascending address order: the map is hash-ordered,
    // so the keys are collected and sorted first to keep the stream
    // bytes a pure function of the simulated state. Borrowed and owned
    // pages save the same bytes; a load borrows every page.
    std::vector<Addr> pages;
    if (ar.loading()) {
        dramPages_.clear();
        goldenBytes_ = ar.owner();
    } else {
        pages.reserve(dramPages_.size());
        for (const auto &[base, page] : dramPages_) {
            (void)page;
            pages.push_back(base);
        }
        std::sort(pages.begin(), pages.end());
    }
    uint64_t count = pages.size();
    ar.u64(count);
    for (uint64_t i = 0; i < count && ar.ok(); ++i) {
        Addr base = ar.loading() ? 0 : pages[i];
        ar.u64(base);
        DramPage &page = dramPages_[base];
        if (page.words.empty())
            ar.borrowWords(page.golden);
        else
            ar.words(page.words);
        XSER_ASSERT(page.golden.size() + page.words.size() == pageWords,
                    "snapshot DRAM page has wrong word count");
    }
}

uint64_t
MemorySystem::totalSramBits() const
{
    uint64_t bits = 0;
    for (const auto &array : l1i_)
        bits += array->array().totalBits();
    for (const auto &cache : l1d_)
        bits += cache->dataArray().totalBits();
    for (const auto &array : tlb_)
        bits += array->array().totalBits();
    for (const auto &cache : l2_)
        bits += cache->dataArray().totalBits();
    bits += l3_->dataArray().totalBits();
    return bits;
}

} // namespace xser::mem
