/**
 * @file
 * Operating points: (PMD voltage, SoC voltage, core frequency) tuples.
 *
 * The four named points are exactly Table 3 of the paper: nominal, safe,
 * and Vmin at 2.4 GHz, plus Vmin at 900 MHz (where only the PMD domain
 * scales; the SoC domain stays at its nominal 950 mV).
 */

#ifndef XSER_VOLT_OPERATING_POINT_HH
#define XSER_VOLT_OPERATING_POINT_HH

#include <string>
#include <vector>

namespace xser::volt {

/** One voltage/frequency setting of the chip. */
struct OperatingPoint {
    std::string name;      ///< e.g. "Vmin"
    double pmdMillivolts;  ///< PMD (cores + L1/L2) supply
    double socMillivolts;  ///< SoC (L3 + DRAM ctrl) supply
    double frequencyHz;    ///< PMD core clock

    /** PMD supply in volts. */
    double pmdVolts() const { return pmdMillivolts / 1000.0; }

    /** SoC supply in volts. */
    double socVolts() const { return socMillivolts / 1000.0; }

    /** Label like "920mV @ 2.4GHz". */
    std::string label() const;

    bool operator==(const OperatingPoint &) const = default;
};

/** Nominal: 980 mV / 950 mV @ 2.4 GHz. */
OperatingPoint nominalPoint();

/** Safe reduced: 930 mV / 925 mV @ 2.4 GHz. */
OperatingPoint safePoint();

/** Lowest safe (Vmin): 920 mV / 920 mV @ 2.4 GHz. */
OperatingPoint vminPoint();

/** Vmin at 900 MHz: 790 mV / 950 mV. */
OperatingPoint vmin900Point();

/** The four points of Table 3, in session order (Table 2). */
std::vector<OperatingPoint> paperOperatingPoints();

/** The three 2.4 GHz points (most per-figure sweeps use these). */
std::vector<OperatingPoint> points24GHz();

} // namespace xser::volt

#endif // XSER_VOLT_OPERATING_POINT_HH
