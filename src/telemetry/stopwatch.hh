/**
 * @file
 * Wall-clock access for the telemetry layer.
 *
 * This header is the ONLY place outside the implementation file where
 * simulation code may obtain wall-clock time, and it deliberately
 * exposes nothing but an opaque nanosecond counter: no <chrono> types
 * leak into including translation units, so the xser-lint wallclock
 * and telemetry-purity rules can verify at token level that timers
 * never reach simulated state. Wall-clock readings feed reports only
 * (progress lines, phase timings, the manifest's "timing" section) --
 * never an RNG stream, the sim clock, or a campaign result.
 */

#ifndef XSER_TELEMETRY_STOPWATCH_HH
#define XSER_TELEMETRY_STOPWATCH_HH

#include <cstdint>

namespace xser::telemetry {

/**
 * Monotonic wall-clock nanoseconds since an arbitrary epoch.
 * Implemented in stopwatch.cc -- the one sanctioned <chrono> site.
 */
uint64_t monotonicNanos();

/** Simple interval timer over monotonicNanos(). */
class Stopwatch
{
  public:
    Stopwatch() : start_(monotonicNanos()) {}

    /** Seconds since construction. */
    double seconds() const
    {
        return static_cast<double>(monotonicNanos() - start_) * 1e-9;
    }

  private:
    uint64_t start_;
};

} // namespace xser::telemetry

#endif // XSER_TELEMETRY_STOPWATCH_HH
