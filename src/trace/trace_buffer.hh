/**
 * @file
 * Bounded in-memory event buffer: the per-work-unit sink the parallel
 * campaign engine attaches to each (session, replicate) unit. Memory
 * is bounded by construction -- once the capacity is reached further
 * events are counted as dropped but not stored, so a pathological
 * session cannot exhaust the host. Counters in the TraceSink base are
 * exact regardless of drops.
 */

#ifndef XSER_TRACE_TRACE_BUFFER_HH
#define XSER_TRACE_TRACE_BUFFER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace_sink.hh"

namespace xser::trace {

/** Identity of one (session, replicate) work unit in a trace file. */
struct TraceUnitInfo {
    uint32_t session = 0;
    uint32_t replicate = 0;
    double pmdMillivolts = 0.0;
    double socMillivolts = 0.0;
    double frequencyHz = 0.0;
    std::vector<std::string> workloads; ///< suite order = slot order
};

/** Bounded vector sink for one work unit. */
class TraceBuffer final : public TraceSink
{
  public:
    /** Default capacity: ~40 MB of events per unit at most. */
    static constexpr uint64_t defaultMaxEvents = uint64_t(1) << 20;

    explicit TraceBuffer(uint64_t max_events = defaultMaxEvents)
        : maxEvents_(max_events)
    {
    }

    const std::vector<TraceEvent> &events() const { return events_; }

    /** Events discarded after the buffer filled. */
    uint64_t dropped() const { return dropped_; }

    /** Unit coordinates, stamped by whoever owns the buffer. */
    TraceUnitInfo info;

  private:
    void
    doRecord(const TraceEvent &event) override
    {
        if (events_.size() < maxEvents_)
            events_.push_back(event);
        else
            ++dropped_;
    }

    void
    doClear() override
    {
        events_.clear();
        dropped_ = 0;
    }

    uint64_t maxEvents_;
    uint64_t dropped_ = 0;
    std::vector<TraceEvent> events_;
};

} // namespace xser::trace

#endif // XSER_TRACE_TRACE_BUFFER_HH
