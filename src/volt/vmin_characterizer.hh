/**
 * @file
 * Offline safe-Vmin characterization (paper Section 4.1, Fig. 4).
 *
 * Mirrors the methodology of [49]/[57] the paper relies on: run the
 * workload suite hundreds of times per 5 mV step below nominal; record
 * the probability of failure per step; the safe Vmin is the lowest
 * setting where every run completed. The radiation campaign only ever
 * operates at or above safe Vmin, so any error seen under beam is
 * attributable to radiation, not undervolting (Section 3.6).
 */

#ifndef XSER_VOLT_VMIN_CHARACTERIZER_HH
#define XSER_VOLT_VMIN_CHARACTERIZER_HH

#include <cstdint>
#include <vector>

#include "volt/process_variation.hh"
#include "volt/timing_model.hh"

namespace xser::volt {

/** Sweep parameters. */
struct VminSweepConfig {
    double frequencyHz = 2.4e9;
    double startMillivolts = 980.0;  ///< first (highest) setting
    double stopMillivolts = 880.0;   ///< last (lowest) setting
    double stepMillivolts = 5.0;
    unsigned runsPerStep = 500;
    uint64_t seed = 0xc11ffULL;
};

/** One voltage step of the sweep. */
struct VminStep {
    double millivolts;
    unsigned runs;
    unsigned failures;
    double pfail;  ///< failures / runs
};

/** Full sweep outcome. */
struct VminSweepResult {
    std::vector<VminStep> steps;        ///< highest voltage first
    double safeVminMillivolts;          ///< lowest all-pass setting
    double completeFailMillivolts;      ///< highest setting with pfail=1
                                        ///< (0 when never reached)
};

/**
 * Monte-Carlo safe-Vmin characterizer over the cliff model plus this
 * chip's process variation.
 */
class VminCharacterizer
{
  public:
    VminCharacterizer(const TimingModel &model,
                      const ProcessVariation &variation);

    /** Run a full downward sweep. */
    VminSweepResult sweep(const VminSweepConfig &config) const;

    /**
     * Analytic per-run failure probability at a setting, including the
     * weakest core's process offset.
     */
    double pfailAnalytic(double millivolts, double frequency_hz) const;

  private:
    const TimingModel &model_;
    const ProcessVariation &variation_;
};

} // namespace xser::volt

#endif // XSER_VOLT_VMIN_CHARACTERIZER_HH
