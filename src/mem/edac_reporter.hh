/**
 * @file
 * EDAC-style error reporting, mirroring the Linux EDAC driver interface
 * the paper consumes (Section 4.2): the hardware protection machinery
 * posts corrected (CE) and uncorrected (UE) events attributed to a cache
 * level; the campaign tallies rates per level and per session.
 */

#ifndef XSER_MEM_EDAC_REPORTER_HH
#define XSER_MEM_EDAC_REPORTER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/sim_clock.hh"
#include "trace/trace_sink.hh"

namespace xser::mem {

/** Cache levels distinguished in the paper's figures. */
enum class CacheLevel : uint8_t {
    Tlb = 0,
    L1 = 1,
    L2 = 2,
    L3 = 3,
};

constexpr size_t numCacheLevels = 4;

/** Name used in reports ("TLBs", "L1 Cache", ...). */
const char *cacheLevelName(CacheLevel level);

/** Kind of EDAC notification. */
enum class EdacKind : uint8_t {
    Corrected,    ///< CE: parity refetch or SECDED single-bit repair
    Uncorrected,  ///< UE: SECDED multi-bit detection
};

/** One EDAC log entry (a dmesg line, in effect). */
struct EdacEvent {
    Tick when;
    CacheLevel level;
    EdacKind kind;
    std::string source;  ///< originating array name
};

/** Per-level CE/UE tallies. */
struct EdacTally {
    uint64_t corrected = 0;
    uint64_t uncorrected = 0;

    bool operator==(const EdacTally &) const = default;
};

/**
 * Collects EDAC events for a run/session. Keeping the full event log is
 * optional (sessions only need tallies); tests and examples can enable it.
 */
class EdacReporter
{
  public:
    /** @param keep_log Retain individual events, not just tallies. */
    explicit EdacReporter(bool keep_log = false) : keepLog_(keep_log) {}

    /** Post one event from a protection mechanism. */
    void post(Tick when, CacheLevel level, EdacKind kind,
              const std::string &source);

    /** Tally for one level. */
    const EdacTally &tally(CacheLevel level) const
    {
        return tallies_[static_cast<size_t>(level)];
    }

    /** Total corrected events across levels. */
    uint64_t totalCorrected() const;

    /** Total uncorrected events across levels. */
    uint64_t totalUncorrected() const;

    /** Total events of both kinds, the paper's "memory upsets". */
    uint64_t totalUpsets() const
    {
        return totalCorrected() + totalUncorrected();
    }

    /** Retained log (empty unless keep_log was set). */
    const std::vector<EdacEvent> &log() const { return log_; }

    /** Clear tallies and log for a new run/session. */
    void clear();

    /** Attach the trace sink for the CE/UE cross-check (null detaches). */
    void setTraceSink(const trace::TraceSink *sink) { traceSink_ = sink; }

    /**
     * Cross-check against the lifecycle trace: per level, the CE + UE
     * tally must equal the trace's hardware-visible detection count
     * (ParityDetect + EccCorrect + EccMiscorrect + UeDetect). Trivially
     * true with no sink attached. Asserted at the end of every traced
     * session in debug builds.
     */
    bool consistentWithTrace() const;

  private:
    bool keepLog_;
    std::array<EdacTally, numCacheLevels> tallies_{};
    std::vector<EdacEvent> log_;
    const trace::TraceSink *traceSink_ = nullptr;
};

} // namespace xser::mem

#endif // XSER_MEM_EDAC_REPORTER_HH
