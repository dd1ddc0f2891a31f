/**
 * @file
 * TimingModel implementation.
 */

#include "volt/timing_model.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace xser::volt {

double
normalCdf(double z)
{
    return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

TimingModel::TimingModel(const TimingModelConfig &config)
    : config_(config)
{
    if (config_.anchorCliffVolts <= config_.vthVolts)
        fatal("anchor cliff must be above the threshold voltage");
    anchorDelayUnits_ = pathDelayUnits(config_.anchorCliffVolts);
}

double
TimingModel::pathDelayUnits(double vdd_volts) const
{
    XSER_ASSERT(vdd_volts > config_.vthVolts,
                "path delay undefined at or below Vth");
    return vdd_volts /
           std::pow(vdd_volts - config_.vthVolts, config_.alphaPower);
}

double
TimingModel::logicCliffVolts(double frequency_hz) const
{
    XSER_ASSERT(frequency_hz > 0.0, "frequency must be positive");
    // The cliff is where delay equals the period. Delay at the anchor
    // cliff corresponds to the anchor period, so the target delay scales
    // by (anchor frequency / frequency). Solve by bisection: delay is
    // monotone decreasing in V.
    const double target =
        anchorDelayUnits_ * (config_.anchorFrequencyHz / frequency_hz);
    double lo = config_.vthVolts + 1e-4;
    double hi = 2.0;  // far above any operating point
    // delay(lo) is huge, delay(hi) small; find V with delay(V) = target.
    for (int i = 0; i < 100; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (pathDelayUnits(mid) > target)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

double
TimingModel::cliffVolts(double frequency_hz) const
{
    const double base = std::max(logicCliffVolts(frequency_hz),
                                 config_.sramFloorVolts);
    // Section 3.4: the safe Vmin is temperature-insensitive up to
    // 50 C; beyond that the margins erode.
    const double overheat = std::max(
        0.0, config_.temperatureCelsius - config_.tempSafeLimitCelsius);
    return base + overheat * config_.cliffPerCelsiusVolts;
}

CliffMechanism
TimingModel::mechanismAt(double frequency_hz) const
{
    return logicCliffVolts(frequency_hz) >= config_.sramFloorVolts
        ? CliffMechanism::LogicTiming
        : CliffMechanism::SramStability;
}

double
TimingModel::sigmaVolts(double frequency_hz) const
{
    return mechanismAt(frequency_hz) == CliffMechanism::LogicTiming
        ? config_.sigmaLogicVolts
        : config_.sigmaSramVolts;
}

double
TimingModel::runFailureProbability(double vdd_volts,
                                   double frequency_hz) const
{
    const double cliff = cliffVolts(frequency_hz);
    const double sigma = sigmaVolts(frequency_hz);
    return normalCdf((cliff - vdd_volts) / sigma);
}

} // namespace xser::volt
