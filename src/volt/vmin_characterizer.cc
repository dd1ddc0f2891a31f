/**
 * @file
 * VminCharacterizer implementation.
 */

#include "volt/vmin_characterizer.hh"

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace xser::volt {

VminCharacterizer::VminCharacterizer(const TimingModel &model,
                                     const ProcessVariation &variation)
    : model_(model), variation_(variation)
{
}

double
VminCharacterizer::pfailAnalytic(double millivolts,
                                 double frequency_hz) const
{
    const double vdd = millivolts / 1000.0;
    const double cliff = model_.cliffVolts(frequency_hz) +
                         variation_.worstOffsetVolts();
    const double sigma = model_.sigmaVolts(frequency_hz);
    return normalCdf((cliff - vdd) / sigma);
}

VminSweepResult
VminCharacterizer::sweep(const VminSweepConfig &config) const
{
    if (config.stepMillivolts <= 0.0)
        fatal("sweep step must be positive");
    if (config.startMillivolts < config.stopMillivolts)
        fatal("sweep start must be at or above stop");
    if (config.runsPerStep == 0)
        fatal("sweep needs at least one run per step");

    Rng rng(config.seed);
    VminSweepResult result;
    result.safeVminMillivolts = config.startMillivolts;
    result.completeFailMillivolts = 0.0;

    const double worst_offset = variation_.worstOffsetVolts();
    const double cliff = model_.cliffVolts(config.frequencyHz);
    const double sigma = model_.sigmaVolts(config.frequencyHz);
    bool failures_seen = false;

    for (double mv = config.startMillivolts;
         mv >= config.stopMillivolts - 1e-9;
         mv -= config.stepMillivolts) {
        VminStep step;
        step.millivolts = mv;
        step.runs = config.runsPerStep;
        step.failures = 0;
        const double vdd = mv / 1000.0;
        for (unsigned run = 0; run < config.runsPerStep; ++run) {
            const double threshold =
                rng.nextGaussian(cliff, sigma) + worst_offset;
            if (vdd < threshold)
                ++step.failures;
        }
        step.pfail = static_cast<double>(step.failures) /
                     static_cast<double>(step.runs);
        if (step.failures == 0 && !failures_seen)
            result.safeVminMillivolts = mv;
        if (step.failures > 0)
            failures_seen = true;
        if (step.pfail >= 1.0 && result.completeFailMillivolts == 0.0)
            result.completeFailMillivolts = mv;
        result.steps.push_back(step);
    }
    return result;
}

} // namespace xser::volt
