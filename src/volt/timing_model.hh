/**
 * @file
 * Voltage-cliff timing model.
 *
 * Two failure mechanisms bound the safe undervolting window (paper
 * Sections 2.2 and 4.1):
 *
 *  1. Logic timing: critical-path delay follows the alpha-power law
 *     d(V) = k * V / (V - Vth)^alpha; the chip fails when d(V) exceeds
 *     the clock period. The model is anchored so the mean timing cliff
 *     at 2.4 GHz sits where the paper measured it (pfail rises below
 *     920 mV, complete failure at 900 mV, Fig. 4 left).
 *  2. SRAM read stability / retention: below a floor voltage the cell
 *     margins collapse regardless of frequency. This is what limits the
 *     900 MHz configuration (Fig. 4 right: fail window 790 -> 780 mV),
 *     because its timing cliff, per the alpha-power law, would otherwise
 *     lie near 520 mV.
 *
 * Run-to-run failure thresholds vary with chip-wide supply droop and
 * core-to-core process variation, modeled as a Gaussian spread around
 * the mean cliff. This produces the measured gradual pfail windows
 * (~20 mV wide at 2.4 GHz, ~10 mV at 900 MHz).
 */

#ifndef XSER_VOLT_TIMING_MODEL_HH
#define XSER_VOLT_TIMING_MODEL_HH

namespace xser::volt {

/** Calibration constants of the cliff model. */
struct TimingModelConfig {
    double vthVolts = 0.35;          ///< device threshold voltage
    double alphaPower = 1.3;         ///< velocity-saturation exponent
    double anchorFrequencyHz = 2.4e9;
    double anchorCliffVolts = 0.908; ///< mean logic cliff @ anchor (Fig.4)
    double sramFloorVolts = 0.7845;  ///< mean SRAM stability floor (Fig.4)
    double sigmaLogicVolts = 0.0040; ///< droop+variation spread (logic)
    double sigmaSramVolts = 0.0020;  ///< spread at the SRAM floor
    /*
     * Temperature. The paper characterized temperature-aware: the safe
     * Vmin was unaffected up to 50 C (Section 3.4; the DUT ran at
     * 40-45 C in the beam). Above that, inverted temperature
     * dependence pushes the cliff upward.
     */
    double temperatureCelsius = 45.0;
    double tempSafeLimitCelsius = 50.0;
    double cliffPerCelsiusVolts = 0.0012;  ///< shift above the limit
};

/** Which mechanism sets the cliff at a given frequency. */
enum class CliffMechanism {
    LogicTiming,
    SramStability,
};

/**
 * Computes cliff voltages, failure probabilities, and per-run failure
 * thresholds for any frequency.
 */
class TimingModel
{
  public:
    explicit TimingModel(const TimingModelConfig &config = {});

    const TimingModelConfig &config() const { return config_; }

    /**
     * Normalized alpha-power-law path delay (arbitrary units,
     * monotonically decreasing in V above Vth).
     */
    double pathDelayUnits(double vdd_volts) const;

    /** Mean logic-timing cliff voltage at a frequency. */
    double logicCliffVolts(double frequency_hz) const;

    /** Mean effective cliff: max(logic cliff, SRAM floor), plus the
     *  above-50 C temperature shift (zero in the paper's 40-45 C
     *  operating window). */
    double cliffVolts(double frequency_hz) const;

    /** Mechanism that dominates at this frequency. */
    CliffMechanism mechanismAt(double frequency_hz) const;

    /** Gaussian spread of the effective cliff at this frequency. */
    double sigmaVolts(double frequency_hz) const;

    /**
     * Analytic probability that one run at (vdd, f) fails due to the
     * voltage cliff: Phi((cliff - vdd) / sigma).
     */
    double runFailureProbability(double vdd_volts,
                                 double frequency_hz) const;

  private:
    TimingModelConfig config_;
    double anchorDelayUnits_;  ///< pathDelayUnits at the anchor cliff
};

/** Standard normal CDF used by the cliff model (exposed for tests). */
double normalCdf(double z);

} // namespace xser::volt

#endif // XSER_VOLT_TIMING_MODEL_HH
