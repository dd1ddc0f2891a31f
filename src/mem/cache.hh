/**
 * @file
 * Set-associative cache with a bit-true protected data array.
 *
 * The cache stores line data in an SramArray, so beam-injected flips live
 * in genuine storage and every read-out passes through the protection
 * codec. Recovery *policy* (parity refetch, clean-line reload) lives in
 * MemorySystem, which owns the hierarchy; this class provides the
 * mechanisms: probe, checked word/line access, allocate-with-eviction,
 * and invalidation.
 */

#ifndef XSER_MEM_CACHE_HH
#define XSER_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/cache_geometry.hh"
#include "mem/edac_reporter.hh"
#include "mem/sram_array.hh"

namespace xser::mem {

/** Write policy of a cache level. */
enum class WritePolicy : uint8_t {
    WriteThrough,  ///< L1D on X-Gene 2: lower level always has truth
    WriteBack,     ///< L2/L3: dirty lines only exist here
};

/** Static configuration of one cache; lines are 64 bytes (LineData). */
struct CacheConfig {
    std::string name;           ///< e.g. "l2.0"
    size_t sizeBytes = 0;
    unsigned associativity = 8;
    Protection protection = Protection::Secded;
    WritePolicy writePolicy = WritePolicy::WriteBack;
    CacheLevel level = CacheLevel::L2;
};

/** Victim line handed back by allocate(). */
struct EvictedLine {
    bool valid = false;          ///< a line was evicted
    bool dirty = false;          ///< it needs writing back
    Addr address = 0;            ///< base address of the victim line
    LineData data{};             ///< victim data (checked read-out)
    bool hadUncorrectable = false; ///< a UE fired while reading it out
};

/** Hit/miss and protection statistics for one cache. */
struct CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t writebacks = 0;
    uint64_t invalidations = 0;
};

/**
 * One cache level instance. See file comment for the policy split
 * between this class and MemorySystem.
 */
class Cache
{
  public:
    /**
     * @param config Geometry, protection, and policy.
     * @param reporter EDAC sink for CE/UE events (may not be null).
     */
    Cache(const CacheConfig &config, EdacReporter *reporter);

    const std::string &name() const { return config_.name; }
    const CacheConfig &config() const { return config_; }
    const CacheGeometry &geometry() const { return geometry_; }
    const CacheStats &stats() const { return stats_; }

    /** The protected data array (exposed for beam targeting). */
    SramArray &dataArray() { return dataArray_; }
    const SramArray &dataArray() const { return dataArray_; }

    /** Set the simulated-time source for EDAC and trace timestamps. */
    void
    setTimeSource(const Tick *now)
    {
        now_ = now;
        dataArray_.setTimeSource(now);
    }

    /**
     * Way holding addr, or -1. The hierarchy owner probes once and
     * passes the found way to the word/line accessors below, so a
     * hit costs a single tag search instead of one per operation.
     */
    int
    findWay(Addr addr) const
    {
        const size_t set = geometry_.setIndex(addr);
        const Addr tag = geometry_.tag(addr);
        const LineMeta *line = &meta_[set * config_.associativity];
        for (unsigned way = 0; way < config_.associativity; ++way) {
            if (line[way].valid && line[way].tag == tag)
                return static_cast<int>(way);
        }
        return -1;
    }

    /** True when the line containing addr is present. */
    bool contains(Addr addr) const { return findWay(addr) >= 0; }

    /**
     * Conservative presence test from the residency filter: false means
     * the line is definitely absent (no tag search needed); true means
     * a tag search is required. The filter counts resident lines per
     * hash bucket and is updated by every path that changes residency
     * (allocate, eviction, invalidation, drain, scrub poisoning), so a
     * zero count is exact -- hash collisions only cause spurious
     * probes, never missed ones. The hierarchy owner uses this to make
     * coherence snoops over non-sharing caches O(1).
     */
    bool
    mayContain(Addr addr) const
    {
        return filter_[filterBucket(addr)] != 0;
    }

    /** True when the line containing addr is present and dirty. */
    bool isDirty(Addr addr) const;

    /** True when the line at (addr, way) -- from findWay() -- is dirty. */
    bool
    wayDirty(Addr addr, int way) const
    {
        const size_t set = geometry_.setIndex(addr);
        return meta_[set * config_.associativity +
                     static_cast<unsigned>(way)].dirty;
    }

    /**
     * Checked read of the 64-bit word at addr; the line must be present.
     * CE/UE events are posted to the reporter. Status reflects the
     * protection verdict, including ground-truthed miscorrection.
     */
    ReadOutcome readWord(Addr addr) { return readWord(addr, findWay(addr)); }

    /** As readWord(addr), with the way already found by findWay(). */
    ReadOutcome
    readWord(Addr addr, int way)
    {
        XSER_ASSERT(way >= 0, msg("readWord miss in ", config_.name));
        const size_t set = geometry_.setIndex(addr);
        auto &line = meta_[set * config_.associativity + way];
        line.lastUse = ++useCounter_;

        const size_t index =
            lineWordBase(set, way) + geometry_.wordOffset(addr);
        ReadOutcome outcome = dataArray_.read(index);
        // Clean outcomes post nothing (silent escapes are by definition
        // invisible to EDAC), so the call is skipped for them.
        if (outcome.status != ecc::CheckStatus::Clean)
            postEdac(outcome);
        return outcome;
    }

    /**
     * Write the word at addr; the line must be present. Marks the line
     * dirty under write-back policy.
     */
    void writeWord(Addr addr, uint64_t value)
    {
        writeWord(addr, value, findWay(addr));
    }

    /** As writeWord(addr, value), with the way already found. */
    void
    writeWord(Addr addr, uint64_t value, int way)
    {
        XSER_ASSERT(way >= 0, msg("writeWord miss in ", config_.name));
        const size_t set = geometry_.setIndex(addr);
        auto &line = meta_[set * config_.associativity + way];
        line.lastUse = ++useCounter_;
        if (config_.writePolicy == WritePolicy::WriteBack)
            line.dirty = true;

        const size_t index =
            lineWordBase(set, way) + geometry_.wordOffset(addr);
        dataArray_.write(index, value);
    }

    /**
     * Write the whole line containing addr, with its way already found;
     * the line must be present. Equivalent to writeWord() on each of
     * its words in order (the LRU counter advances once per word), in
     * one array copy when no word of the line is corrupt.
     */
    void writeLine(Addr addr, const LineData &line, int way);

    /**
     * Checked read-out of the full line containing addr (for fills to an
     * upper level or writebacks). The line must be present.
     *
     * @param out Receives the line's words.
     * @return true when any word raised an uncorrectable error.
     */
    bool readLine(Addr addr, LineData &out)
    {
        return readLine(addr, out, findWay(addr));
    }

    /** As readLine(addr, out), with the way already found. */
    bool readLine(Addr addr, LineData &out, int way);

    /**
     * Install a line (write-allocate or fill).
     *
     * @param addr Any address within the line.
     * @param line The line's data.
     * @param dirty Install state (true for write-allocate in WB caches).
     * @return The evicted victim, if one had to make room.
     */
    EvictedLine allocate(Addr addr, const LineData &line, bool dirty);

    /** Drop the line containing addr if present (no writeback). */
    void invalidate(Addr addr);

    /** Drop the line at (addr, way) -- from findWay() -- unconditionally. */
    void invalidateWay(Addr addr, int way);

    /** Drop every line (no writebacks); keeps injected-flip counters. */
    void invalidateAll();

    /** Fraction of lines currently valid, for occupancy diagnostics. */
    double occupancy() const;

    /** Hit/miss accounting (driven by the hierarchy owner). */
    void recordHit() { ++stats_.hits; }
    void recordMiss() { ++stats_.misses; }

    /** Result of scrubbing one line slot. */
    struct ScrubResult {
        bool scanned = false;         ///< slot held a valid line
        bool uncorrectable = false;   ///< a UE was found in it
        bool dirty = false;           ///< it was dirty (needs writeback)
        Addr address = 0;             ///< line base address
        LineData data{};              ///< read-out data (when dirty UE)
    };

    /**
     * Patrol-scrub one line slot (index in [0, numLines)): checked read
     * of every word, repairing correctable errors in place. On an
     * uncorrectable error the line is invalidated so it cannot keep
     * re-reporting; dirty victims hand their (corrupt) data back for
     * writeback by the owner.
     */
    ScrubResult scrubLine(size_t line_index);

    /**
     * Read out (checked) every dirty line and invalidate everything.
     * Used to flush between characterization phases.
     *
     * @return (address, data) pairs that must be written downstream.
     */
    std::vector<std::pair<Addr, LineData>> drainAll();

    /**
     * Save or load the checkpointable state: line metadata, LRU
     * counter, statistics, and the protected data array (loading needs
     * the same geometry). The residency filter is derived state and is
     * rebuilt on load.
     */
    void visit(Archive &ar);

    /** Total SRAM bits of the data array (beam footprint). */
    uint64_t footprintBits() const { return dataArray_.totalBits(); }

    /** True when no word of the data array deviates from its truth. */
    bool arrayClean() const { return dataArray_.corruptWords() == 0; }

  private:
    /** Residency-filter bucket of the line containing addr. */
    size_t
    filterBucket(Addr addr) const
    {
        return static_cast<size_t>(
            (geometry_.lineBase(addr) * 0x9e3779b97f4a7c15ULL) >>
            (64 - filterBucketBits));
    }

    void filterAdd(Addr addr) { ++filter_[filterBucket(addr)]; }
    void filterRemove(Addr addr) { --filter_[filterBucket(addr)]; }

    /** Victim way in addr's set (invalid way first, else LRU). */
    unsigned victimWay(size_t set) const;

    /** Base index of a line's words in the data array. */
    size_t
    lineWordBase(size_t set, unsigned way) const
    {
        return (set * config_.associativity + way) *
               geometry_.wordsPerLine();
    }

    /** Post an EDAC event matching a read outcome, if any. */
    void postEdac(const ReadOutcome &outcome);

    /**
     * Checked read-out of the line at data-array index base, posting
     * an EDAC event for each word that needs one.
     *
     * @return true when any word was uncorrectable.
     */
    bool readOut(size_t base, LineData &out);

    /** True when an outcome leaves the word uncorrectably wrong. */
    bool outcomeUncorrectable(const ReadOutcome &outcome) const;

    /** Current simulated time for event timestamps. */
    Tick now() const { return now_ ? *now_ : 0; }

    CacheConfig config_;
    CacheGeometry geometry_;
    EdacReporter *reporter_;
    SramArray dataArray_;
    const Tick *now_ = nullptr;

    struct LineMeta {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        uint64_t lastUse = 0;
    };
    std::vector<LineMeta> meta_;  ///< numSets * associativity entries

    static constexpr unsigned filterBucketBits = 12;
    /** Resident-line counts per hash bucket (see mayContain). */
    std::vector<uint32_t> filter_;

    uint64_t useCounter_ = 0;
    CacheStats stats_;
};

} // namespace xser::mem

#endif // XSER_MEM_CACHE_HH
