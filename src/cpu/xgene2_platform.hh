/**
 * @file
 * The assembled X-Gene 2 server platform (Table 1 + Fig. 1 of the
 * paper): 8 Armv8 cores in 4 dual-core PMDs, parity L1I/L1D and TLBs
 * per core, a SECDED 256 KB L2 per pair, a shared SECDED 8 MB L3 in the
 * SoC domain, independently regulated PMD/SoC supplies, a per-chip
 * process-variation sample, the voltage-cliff timing model, and the
 * calibrated power model.
 *
 * This is the main object users construct; campaigns, characterizers,
 * and examples all operate on it.
 */

#ifndef XSER_CPU_XGENE2_PLATFORM_HH
#define XSER_CPU_XGENE2_PLATFORM_HH

#include <memory>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "mem/memory_system.hh"
#include "sim/sim_clock.hh"
#include "volt/operating_point.hh"
#include "volt/power_model.hh"
#include "volt/process_variation.hh"
#include "volt/timing_model.hh"
#include "volt/voltage_domain.hh"

namespace xser::cpu {

/** Platform-wide configuration. */
struct PlatformConfig {
    mem::MemorySystemConfig memory;
    volt::TimingModelConfig timing;
    volt::PowerModelConfig power;
    CoreConfig coreTemplate;  ///< id is overwritten per core
    /** Core-to-core process-variation spread (volts). */
    double processSigmaVolts = 0.0015;
    /** Seed identifying this physical chip specimen. */
    uint64_t chipSeed = 0x86e2ULL;
};

/**
 * The server under test.
 */
class XGene2Platform
{
  public:
    explicit XGene2Platform(const PlatformConfig &config = {});

    /** The configuration this platform was built from. */
    const PlatformConfig &config() const { return config_; }

    /* Component access. */
    mem::MemorySystem &memory() { return *memory_; }
    mem::EdacReporter &edac() { return edac_; }
    volt::VoltageDomain &pmdDomain() { return pmd_; }
    volt::VoltageDomain &socDomain() { return soc_; }
    SimClock &clock() { return clock_; }
    const volt::TimingModel &timing() const { return timing_; }
    const volt::ProcessVariation &variation() const { return variation_; }
    const volt::PowerModel &power() const { return power_; }
    Core &core(unsigned index);
    unsigned numCores() const
    {
        return static_cast<unsigned>(cores_.size());
    }

    /** Apply an operating point to both domains and the core clock. */
    void applyOperatingPoint(const volt::OperatingPoint &point);

    /** Current operating point (name reflects voltages/frequency). */
    volt::OperatingPoint operatingPoint() const;

    /** Set every core's workload code/TLB footprint. */
    void setWorkloadFootprint(size_t code_words, size_t tlb_entries);

    /** Drive every core's front end for a quantum of accesses. */
    void driveFrontEnd(uint64_t accesses_per_core);

    /**
     * Convert a total cycle count (summed over all cores' accesses)
     * into elapsed wall time on the 8-way-parallel chip and advance the
     * simulated clock by it.
     *
     * @return The elapsed ticks.
     */
    Tick advanceForCycles(uint64_t total_cycles);

    /** Chip power at the current operating point. */
    double currentPowerWatts(double activity = 1.0) const;

    /**
     * Save or load the platform's checkpointable state: the simulated
     * clock, every core's front-end driver (RNG stream + carries), and
     * the full memory hierarchy. Voltage domains, timing, variation,
     * and power are pure functions of configuration + the applied
     * operating point, so a loader built from the same configuration
     * calls applyOperatingPoint() first instead of serializing them.
     */
    void visit(Archive &ar);

    /** Formatted Table 1 specification dump. */
    std::string specTable() const;

  private:
    PlatformConfig config_;
    mem::EdacReporter edac_;
    std::unique_ptr<mem::MemorySystem> memory_;
    volt::VoltageDomain pmd_;
    volt::VoltageDomain soc_;
    SimClock clock_;
    volt::TimingModel timing_;
    volt::ProcessVariation variation_;
    volt::PowerModel power_;
    std::vector<std::unique_ptr<Core>> cores_;
};

} // namespace xser::cpu

#endif // XSER_CPU_XGENE2_PLATFORM_HH
