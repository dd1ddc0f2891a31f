/**
 * @file
 * Simulated-time bookkeeping.
 *
 * Time is kept in integer picoseconds (Tick) so cycle arithmetic at any
 * frequency from 300 MHz to 2.4 GHz stays exact. Helper conversions keep
 * call sites free of unit mistakes.
 */

#ifndef XSER_SIM_SIM_CLOCK_HH
#define XSER_SIM_SIM_CLOCK_HH

#include <cstdint>

namespace xser {

/** Simulated time in picoseconds. */
using Tick = uint64_t;

namespace ticks {

constexpr Tick perPicosecond = 1;
constexpr Tick perNanosecond = 1000;
constexpr Tick perMicrosecond = 1000 * perNanosecond;
constexpr Tick perMillisecond = 1000 * perMicrosecond;
constexpr Tick perSecond = 1000 * perMillisecond;

/** Convert seconds (double) to ticks, rounding to nearest. */
constexpr Tick
fromSeconds(double seconds)
{
    return static_cast<Tick>(seconds * static_cast<double>(perSecond) + 0.5);
}

/** Convert ticks to seconds. */
constexpr double
toSeconds(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(perSecond);
}

/** Convert ticks to minutes. */
constexpr double
toMinutes(Tick t)
{
    return toSeconds(t) / 60.0;
}

/** Period in ticks of a clock at the given frequency in Hz. */
constexpr Tick
periodFromFrequency(double hz)
{
    return static_cast<Tick>(static_cast<double>(perSecond) / hz + 0.5);
}

} // namespace ticks

/**
 * A simulated clock: advances in ticks, converts between cycles and time
 * for a configurable frequency.
 */
class SimClock
{
  public:
    /** Construct a clock at the given frequency (Hz). */
    explicit SimClock(double frequency_hz = 2.4e9);

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Stable pointer to the current time, for event timestamping. */
    const Tick *nowPtr() const { return &now_; }

    /** Clock frequency in Hz. */
    double frequency() const { return frequencyHz_; }

    /** Clock period in ticks. */
    Tick period() const { return periodTicks_; }

    /**
     * Change the operating frequency (DVFS). Takes effect for subsequent
     * cycle accounting; elapsed time is unaffected.
     */
    void setFrequency(double frequency_hz);

    /** Advance time by the given number of ticks. */
    void advance(Tick delta) { now_ += delta; }

    /** Advance time by the given number of cycles at current frequency. */
    void advanceCycles(uint64_t cycles) { now_ += cycles * periodTicks_; }

    /** Restore a previously observed time (checkpoint restore). */
    void setNow(Tick now) { now_ = now; }

    /** Number of whole cycles elapsed at the current frequency. */
    uint64_t cyclesElapsed() const { return now_ / periodTicks_; }

  private:
    double frequencyHz_;
    Tick periodTicks_;
    Tick now_ = 0;
};

} // namespace xser

#endif // XSER_SIM_SIM_CLOCK_HH
