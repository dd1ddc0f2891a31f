/**
 * @file
 * Refetchable parity-protected arrays: TLBs and the L1 instruction cache.
 *
 * On X-Gene 2 these arrays are parity protected and hold state that is
 * always reconstructible (page-table walk, instruction refetch), so a
 * detected parity error invalidates the entry and reloads it -- a
 * corrected upset from software's point of view (Section 3.1). We model
 * them as SramArrays with deterministic synthetic contents and an
 * access process driven by the workload's code/page footprint.
 */

#ifndef XSER_MEM_TLB_HH
#define XSER_MEM_TLB_HH

#include <cstdint>
#include <string>

#include "mem/edac_reporter.hh"
#include "mem/sram_array.hh"
#include "sim/sim_clock.hh"

namespace xser::mem {

/**
 * A parity-protected array whose every entry can be re-fetched from an
 * authoritative lower level. Covers TLBs (refill via page walk) and L1I
 * (refill from L2). A touch() models hardware reading an entry: a parity
 * error invalidates and refetches, posting a corrected EDAC event; an
 * undetected (even-flip) corruption is repaired silently the next time
 * the entry is re-fetched and is counted by the underlying array.
 */
class RefetchableArray
{
  public:
    /**
     * @param name Array name for EDAC attribution.
     * @param words Capacity in 64-bit words.
     * @param level Cache level to attribute events to.
     * @param reporter EDAC sink (may not be null).
     * @param fill_seed Seed for the deterministic synthetic contents.
     */
    RefetchableArray(std::string name, size_t words, CacheLevel level,
                     EdacReporter *reporter, uint64_t fill_seed);

    /** The protected array (exposed for beam targeting). */
    SramArray &array() { return array_; }
    const SramArray &array() const { return array_; }

    /** Set the simulated-time source for EDAC and trace timestamps. */
    void
    setTimeSource(const Tick *now)
    {
        now_ = now;
        array_.setTimeSource(now);
    }

    /** Capacity in words. */
    size_t words() const { return array_.words(); }

    /**
     * Model hardware reading entry word `index`: check parity, repair by
     * refetch on error.
     *
     * @return true when a parity error was detected (and repaired).
     */
    bool touch(size_t index);

    /**
     * Model entry replacement (a TLB refill or I-line fill): the entry
     * is overwritten with fresh contents without being read, so a
     * latent flip is silently destroyed -- the dominant reason real
     * TLB/L1I upset-detection efficiency sits well below 100 %.
     */
    void replace(size_t index);

    /** Number of parity-repair events so far. */
    uint64_t repairs() const { return repairs_; }

    /** Save or load checkpointable state (repair count + array). */
    void
    visit(Archive &ar)
    {
        ar.u64(repairs_);
        array_.visit(ar);
    }

  private:
    /** Deterministic synthetic content of a word. */
    uint64_t fillValue(size_t index) const;

    SramArray array_;
    CacheLevel level_;
    EdacReporter *reporter_;
    uint64_t fillSeed_;
    uint64_t repairs_ = 0;
    const Tick *now_ = nullptr;
};

} // namespace xser::mem

#endif // XSER_MEM_TLB_HH
