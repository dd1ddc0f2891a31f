/**
 * @file
 * Patrol scrubber pacing.
 *
 * X-Gene-class server parts background-scrub their large ECC arrays so
 * latent single-bit upsets are corrected before a second strike turns
 * them into uncorrectable errors. Detection of upsets in rarely-read
 * lines also comes from the scrubber, which is why observed upset rates
 * approach (but stay below) raw rates (paper Section 3.5).
 *
 * The Scrubber converts elapsed simulated time into "lines to scrub this
 * quantum" for the L2 and L3 arrays, carrying fractional remainders so
 * pacing is exact over long sessions.
 */

#ifndef XSER_MEM_SCRUBBER_HH
#define XSER_MEM_SCRUBBER_HH

#include "mem/memory_system.hh"
#include "sim/sim_clock.hh"

namespace xser::mem {

/** Scrubber pacing configuration. */
struct ScrubberConfig {
    /** Simulated time for one full pass over an L2 array. */
    Tick l2PassPeriod = ticks::fromSeconds(0.050);
    /** Simulated time for one full pass over the L3 array. */
    Tick l3PassPeriod = ticks::fromSeconds(0.100);
    /** Master enable. */
    bool enabled = true;
    /**
     * Clock scale: the scrub FSM is clocked by the cache domain, so
     * its wall-time pass rate scales with the core frequency. The
     * session sets this to f / 2.4 GHz; 1.0 = the nominal rate.
     */
    double clockScale = 1.0;
    /** Per-level enables (the L3's detection is dominated by demand
     *  traffic in the campaign configuration; see test_session.cc). */
    bool l2Enabled = true;
    bool l3Enabled = true;
};

/**
 * Drives MemorySystem::scrub() at a configured pace.
 */
class Scrubber
{
  public:
    Scrubber(const ScrubberConfig &config, MemorySystem *memory);

    /** Account for elapsed simulated time; scrub the lines now due. */
    void advance(Tick elapsed);

    /** Lines scrubbed so far (L2 cursor steps + L3 lines). */
    uint64_t linesScrubbed() const { return linesScrubbed_; }

    const ScrubberConfig &config() const { return config_; }

    /** Reset pacing remainders (start of session). */
    void reset();

  private:
    ScrubberConfig config_;
    MemorySystem *memory_;
    double l2Remainder_ = 0.0;
    double l3Remainder_ = 0.0;
    double l2LinesPerTick_ = 0.0;
    double l3LinesPerTick_ = 0.0;
    uint64_t linesScrubbed_ = 0;
};

} // namespace xser::mem

#endif // XSER_MEM_SCRUBBER_HH
