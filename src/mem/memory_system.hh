/**
 * @file
 * The full X-Gene 2 memory hierarchy: per-core parity L1I/L1D and TLBs,
 * per-core-pair SECDED L2s, one shared SECDED L3, and a DRAM backing
 * store. Owns the recovery policies the paper describes in Section 3.1:
 *
 *  - parity error in L1D/L1I/TLB -> invalidate + refetch (write-through /
 *    reconstructible state), logged as a corrected upset;
 *  - SECDED single-bit error in L2/L3 -> corrected in place (CE);
 *  - SECDED double-bit error -> UE; clean lines are reloaded from the
 *    level below, dirty lines deliver their (corrupt) data.
 *
 * Coherence between the four L2 islands and eight L1Ds uses a simple
 * write-invalidate snoop: good enough for partitioned HPC workloads and
 * guarantees single-writer correctness so that every output mismatch is
 * genuinely radiation-induced.
 *
 * Single-owner invariant: a line is resident in at most one L2. Only
 * installL2 adds an L2 line, and each of its callers first either
 * snoops the other L2s (readLineFromL2's miss, writeWord's miss) or
 * has just dropped a poisoned clean copy its own L2 alone held
 * (readLineFromL2's uncorrectable hit). Beam flips, scrubs, flushAll
 * and snapshot loads never install a line. writeWord relies on this:
 * with the fast path on, a write its own L2 already holds snoops no
 * other L2.
 */

#ifndef XSER_MEM_MEMORY_SYSTEM_HH
#define XSER_MEM_MEMORY_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/cache.hh"
#include "mem/edac_reporter.hh"
#include "mem/tlb.hh"

namespace xser::mem {

/** Static configuration of the hierarchy (defaults = Table 1). */
struct MemorySystemConfig {
    unsigned numCores = 8;
    size_t l1iBytes = 32 * 1024;        ///< parity, refetchable
    size_t l1dBytes = 32 * 1024;        ///< parity, write-through
    unsigned l1dAssociativity = 4;
    size_t l2Bytes = 256 * 1024;        ///< SECDED, write-back, per pair
    unsigned l2Associativity = 8;
    size_t l3Bytes = 8 * 1024 * 1024;   ///< SECDED, write-back, shared
    unsigned l3Associativity = 16;
    size_t tlbWordsPerCore = 1064;      ///< 1024 unified L2 TLB + D/I
                                        ///< micro-TLBs, one word per entry
    unsigned l1HitCycles = 2;
    unsigned l2HitCycles = 12;
    unsigned l3HitCycles = 35;
    unsigned dramCycles = 130;
    uint64_t contentSeed = 0x5eedULL;   ///< synthetic L1I/TLB contents
    /** Protection schemes (defaults = Table 1; ablations override). */
    Protection l1Protection = Protection::Parity;
    Protection l2Protection = Protection::Secded;
    Protection l3Protection = Protection::Secded;
    /**
     * Event-driven fast paths (clean-read short-circuit in every SRAM
     * array, clean-line and clean-array patrol-scrub skips). Observably
     * identical to the reference paths -- gated by the differential
     * tests -- and on by default; campaigns flip it off only to prove
     * equivalence.
     */
    bool fastPath = true;
};

/** One beam-targetable SRAM array with its level attribution. */
struct BeamTarget {
    SramArray *array;
    CacheLevel level;
    bool pmdDomain;  ///< true when powered by the PMD (core) domain
};

/** Run-scoped corruption-delivery counters (analysis only). */
struct DeliveryCounters {
    uint64_t parityRefetches = 0;   ///< L1D parity invalidate+refetch
    uint64_t dirtyUeDeliveries = 0; ///< corrupt dirty lines handed upward
};

/**
 * The assembled memory hierarchy. All workload traffic enters through
 * readWord/writeWord tagged with the issuing core.
 */
class MemorySystem
{
  public:
    MemorySystem(const MemorySystemConfig &config, EdacReporter *reporter);

    const MemorySystemConfig &config() const { return config_; }

    /** Bump-allocate simulated memory (64-byte aligned). */
    Addr allocate(size_t bytes, const std::string &tag);

    /** Read the 64-bit word at addr through core's hierarchy path. */
    uint64_t readWord(unsigned core, Addr addr);

    /** Write the 64-bit word at addr through core's hierarchy path. */
    void writeWord(unsigned core, Addr addr, uint64_t value);

    /** Model an instruction fetch touching word index of core's L1I. */
    void touchIFetch(unsigned core, size_t word_index);

    /** Model a TLB lookup touching word index of core's TLB array. */
    void touchTlb(unsigned core, size_t word_index);

    /**
     * Patrol-scrub: advance the round-robin scrub cursors over the L2
     * and L3 arrays by the given number of lines each.
     */
    void scrub(size_t l2_lines, size_t l3_lines);

    /** Write back all dirty lines and invalidate every cache. */
    void flushAll();

    /**
     * Save or load the full checkpointable hierarchy state: every cache
     * and refetchable array, the DRAM backing store (pages in sorted
     * address order, so the bytes are independent of hash order), the
     * heap bump pointer, the access/cycle accumulators, the scrub
     * cursors, and the delivery counters. Loading needs an identically
     * configured hierarchy (validated, fatal on mismatch). A load
     * borrows the DRAM pages from the archive's input and holds a share
     * of its owner; a page is copied out on its first write.
     */
    void visit(Archive &ar);

    /** All SRAM arrays the beam can strike. */
    std::vector<BeamTarget> beamTargets();

    /** Total SRAM bits across all arrays (the ~10 MB of Section 3.3). */
    uint64_t totalSramBits() const;

    /** Accumulated access cost in cycles since the last clear. */
    uint64_t cyclesAccumulated() const { return cycles_; }

    /** Reset the access-cost accumulator. */
    void clearCycles() { cycles_ = 0; }

    /** Number of read/write word operations issued. */
    uint64_t accessCount() const { return accesses_; }

    /** Analysis counters for the current run. */
    const DeliveryCounters &deliveryCounters() const { return delivery_; }

    /** Clear analysis counters (start of run). */
    void clearDeliveryCounters() { delivery_ = DeliveryCounters{}; }

    /** Set the simulated-time source used to timestamp EDAC events. */
    void setTimeSource(const Tick *now);

    /**
     * Attach a lifecycle trace sink to every SRAM array (null detaches).
     * Array ids are indices into traceArrayTable().
     */
    void setTraceSink(trace::TraceSink *sink);

    /**
     * Array descriptors in beamTargets() order -- the trace file's array
     * table. Depends only on configuration, so any MemorySystem built
     * from the same config yields an identical table.
     */
    std::vector<trace::TraceArrayInfo> traceArrayTable() const;

    /** Per-level component access for tests and reports. */
    Cache &l1d(unsigned core);
    Cache &l2(unsigned pair);
    Cache &l3() { return *l3_; }
    RefetchableArray &l1i(unsigned core);
    RefetchableArray &tlb(unsigned core);
    EdacReporter &reporter() { return *reporter_; }

  private:
    /** Fetch a full line into `out` from the L2/L3/DRAM path. */
    void readLineFromL2(unsigned core, Addr line_addr, LineData &out);
    void readLineFromL3(Addr line_addr, LineData &out);

    /** Install a line into L2/L3, spilling the victim downstream. */
    void installL2(unsigned pair, Addr line_addr, const LineData &line,
                   bool dirty);
    void installL3(Addr line_addr, const LineData &line, bool dirty);

    /** Write a full line into L3 (allocating if needed). */
    void writeLineToL3(Addr line_addr, const LineData &line);

    /**
     * Snoop other L2s before an L2 miss reads L3 (for a read or a
     * write-allocate); the reference path also snoops every write hit.
     */
    void snoopOtherL2s(unsigned writing_pair, Addr line_addr);

    /** DRAM access helpers (backing store is authoritative + ECC'd). */
    void dramReadLine(Addr line_addr, LineData &out);
    void dramWriteLine(Addr line_addr, const LineData &line);

    MemorySystemConfig config_;
    EdacReporter *reporter_;
    const Tick *now_ = nullptr;
    trace::TraceSink *traceSink_ = nullptr;

    std::vector<std::unique_ptr<Cache>> l1d_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::unique_ptr<Cache> l3_;
    std::vector<std::unique_ptr<RefetchableArray>> l1i_;
    std::vector<std::unique_ptr<RefetchableArray>> tlb_;

    /**
     * A 4 KiB DRAM page of 512 words: borrowed from the loaded golden
     * image until its first write, owned from then on. Exactly one of
     * the two is non-empty.
     */
    struct DramPage {
        WordView golden;             ///< words inside *goldenBytes_
        std::vector<uint64_t> words; ///< this hierarchy's own copy
    };

    /**
     * DRAM pages, allocated on first touch (a read of an absent page
     * adds a zero page) or borrowed by a load.
     *
     * Point lookups only -- this map must never be iterated (hash
     * order would be a hidden input to any walk over it). xser-lint's
     * unordered-iter rule guards the loops; the declaration itself is
     * justified in tools/xser-lint-allow.txt.
     */
    std::unordered_map<Addr, DramPage> dramPages_;

    /**
     * The image the borrowed pages point into. Only ever read, so
     * every hierarchy loaded from one image shares it without locks.
     */
    std::shared_ptr<const std::string> goldenBytes_;

    Addr heapNext_ = 0x10000;  ///< bump pointer (low pages reserved)
    uint64_t cycles_ = 0;
    uint64_t accesses_ = 0;
    DeliveryCounters delivery_;
    size_t l2ScrubCursor_ = 0;
    size_t l3ScrubCursor_ = 0;
    LineData lineScratch_{};
};

} // namespace xser::mem

#endif // XSER_MEM_MEMORY_SYSTEM_HH
