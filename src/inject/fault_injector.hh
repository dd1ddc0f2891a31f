/**
 * @file
 * Deterministic fault injector over the platform's SRAM arrays.
 *
 * Complements the beam: where BeamSource samples upsets from physics,
 * FaultInjector places them deliberately -- uniformly at random over
 * the footprint (statistical fault injection, [42] in the paper), at
 * an exact site (regression tests), or as a burst cluster (MBU
 * studies). An injection log supports bit-exact replay.
 */

#ifndef XSER_INJECT_FAULT_INJECTOR_HH
#define XSER_INJECT_FAULT_INJECTOR_HH

#include <vector>

#include "inject/fault_site.hh"
#include "sim/rng.hh"

namespace xser::inject {

/**
 * Places bit flips into a fixed target list.
 */
class FaultInjector
{
  public:
    /**
     * @param targets Arrays to inject into (typically
     *        MemorySystem::beamTargets()).
     * @param seed Stream seed for random site selection.
     */
    FaultInjector(std::vector<mem::BeamTarget> targets, uint64_t seed);

    /** Number of injectable bits across all targets. */
    uint64_t footprintBits() const { return footprintBits_; }

    /** Flip one specific site. */
    void inject(const FaultSite &site);

    /**
     * Flip one uniformly random bit over the whole footprint
     * (bit-weighted across arrays).
     *
     * @return The site chosen.
     */
    FaultSite injectRandom();

    /**
     * Flip a cluster of `size` adjacent bits within one random word
     * (wrapping past its top bit); `size` must not exceed the word.
     */
    FaultSite injectRandomBurst(unsigned size);

    /** All sites injected so far, in order (replay log). */
    const std::vector<FaultSite> &log() const { return log_; }

    /** Replay a previously recorded log. */
    void replay(const std::vector<FaultSite> &log);

    /** Targets this injector addresses. */
    const std::vector<mem::BeamTarget> &targets() const
    {
        return targets_;
    }

  private:
    /** Map a flat bit offset onto a site. */
    FaultSite siteAt(uint64_t flat_bit) const;

    std::vector<mem::BeamTarget> targets_;
    std::vector<uint64_t> cumulativeBits_;  ///< prefix sums per target
    uint64_t footprintBits_ = 0;
    Rng rng_;
    std::vector<FaultSite> log_;
};

} // namespace xser::inject

#endif // XSER_INJECT_FAULT_INJECTOR_HH
