/**
 * @file
 * SimClock implementation.
 */

#include "sim/sim_clock.hh"

#include "sim/logging.hh"

namespace xser {

SimClock::SimClock(double frequency_hz)
{
    setFrequency(frequency_hz);
}

void
SimClock::setFrequency(double frequency_hz)
{
    // Written so NaN fails too: periodFromFrequency would cast it.
    if (!(frequency_hz > 0.0))
        fatal(msg("clock frequency must be positive, got ", frequency_hz));
    const Tick period = ticks::periodFromFrequency(frequency_hz);
    if (period == 0)
        fatal(msg("clock frequency ", frequency_hz,
                  " Hz has a period below the 1 ps tick resolution"));
    frequencyHz_ = frequency_hz;
    periodTicks_ = period;
}

} // namespace xser
