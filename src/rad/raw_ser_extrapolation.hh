/**
 * @file
 * The state-of-the-art baseline the paper improves on: raw-SER
 * voltage extrapolation in the style of Seifert et al. ([66],[67]) --
 * measure the SRAM SER at nominal voltage, then *extrapolate* to
 * reduced voltages through the Qcrit/cross-section model alone,
 * without running the system.
 *
 * The paper's thesis is that this misses the system-level picture:
 * raw SRAM SER grows only ~10-40 % across the safe undervolting
 * range, while the *silent data corruption* rate of the full system
 * explodes ~16x at Vmin because unprotected core logic couples to the
 * vanishing timing slack. bench_paper's baseline table puts the two
 * side by side.
 */

#ifndef XSER_RAD_RAW_SER_EXTRAPOLATION_HH
#define XSER_RAD_RAW_SER_EXTRAPOLATION_HH

#include <vector>

#include "mem/memory_system.hh"
#include "rad/cross_section_model.hh"
#include "rad/flux_environment.hh"

namespace xser::rad {

/** One structure entry for the extrapolation. */
struct SerStructure {
    mem::CacheLevel level;
    uint64_t bits;
    bool pmdDomain;  ///< which supply scales it
};

/** Extrapolated SER at one voltage setting. */
struct SerPrediction {
    double pmdVolts;
    double socVolts;
    double rawFit;            ///< chip SRAM SER, FIT at the ref flux
    double ratioToNominal;    ///< rawFit / rawFit(nominal)
};

/**
 * Seifert-style raw SER extrapolator over a structure inventory.
 */
class RawSerExtrapolation
{
  public:
    /**
     * @param xsection Voltage-dependent per-bit cross sections.
     * @param structures SRAM inventory (level, bits, domain).
     * @param environment Reference flux (default NYC sea level).
     */
    RawSerExtrapolation(const CrossSectionModel *xsection,
                        std::vector<SerStructure> structures,
                        const FluxEnvironment &environment =
                            nycSeaLevel());

    /** Raw chip SER (FIT) at the given domain voltages. */
    double rawFit(double pmd_volts, double soc_volts) const;

    /**
     * Predictions across a list of (PMD, SoC) voltage pairs, with
     * ratios normalized to the first entry.
     */
    std::vector<SerPrediction> predict(
        const std::vector<std::pair<double, double>> &settings) const;

  private:
    const CrossSectionModel *xsection_;
    std::vector<SerStructure> structures_;
    FluxEnvironment environment_;
};

/** Build the structure inventory from a memory system's beam targets. */
std::vector<SerStructure> inventoryFrom(
    const std::vector<mem::BeamTarget> &targets);

} // namespace xser::rad

#endif // XSER_RAD_RAW_SER_EXTRAPOLATION_HH
