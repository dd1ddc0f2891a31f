/**
 * @file
 * Scrubber implementation.
 */

#include "mem/scrubber.hh"

#include "sim/logging.hh"
#include "telemetry/metrics.hh"

namespace xser::mem {

Scrubber::Scrubber(const ScrubberConfig &config, MemorySystem *memory)
    : config_(config), memory_(memory)
{
    XSER_ASSERT(memory_ != nullptr, "scrubber needs a memory system");
    if (config_.l2PassPeriod == 0 || config_.l3PassPeriod == 0)
        fatal("scrub pass periods must be positive");

    if (config_.clockScale <= 0.0)
        fatal("scrubber clock scale must be positive");
    const double l2_lines =
        static_cast<double>(memory_->l2(0).geometry().numLines());
    const double l3_lines =
        static_cast<double>(memory_->l3().geometry().numLines());
    l2LinesPerTick_ = config_.clockScale * l2_lines /
                      static_cast<double>(config_.l2PassPeriod);
    l3LinesPerTick_ = config_.clockScale * l3_lines /
                      static_cast<double>(config_.l3PassPeriod);
}

void
Scrubber::advance(Tick elapsed)
{
    if (!config_.enabled || elapsed == 0)
        return;
    if (config_.l2Enabled)
        l2Remainder_ += l2LinesPerTick_ * static_cast<double>(elapsed);
    if (config_.l3Enabled)
        l3Remainder_ += l3LinesPerTick_ * static_cast<double>(elapsed);

    const auto l2_due = static_cast<size_t>(l2Remainder_);
    const auto l3_due = static_cast<size_t>(l3Remainder_);
    l2Remainder_ -= static_cast<double>(l2_due);
    l3Remainder_ -= static_cast<double>(l3_due);

    if (l2_due > 0 || l3_due > 0) {
        memory_->scrub(l2_due, l3_due);
        linesScrubbed_ += l2_due + l3_due;
        telemetry::count(telemetry::Counter::ScrubPasses);
        telemetry::count(telemetry::Counter::ScrubLines,
                         l2_due + l3_due);
    }
}

} // namespace xser::mem
