/**
 * @file
 * Run outcome taxonomy (Section 2.1 / 3.6 of the paper) and the
 * per-run record the campaign accumulates.
 */

#ifndef XSER_CORE_OUTCOME_HH
#define XSER_CORE_OUTCOME_HH

#include <cstdint>
#include <string>

#include "sim/sim_clock.hh"

namespace xser::core {

/** Primary classification of one benchmark run. */
enum class RunOutcome : uint8_t {
    Success = 0,   ///< output matched the golden reference
    Sdc = 1,       ///< silent data corruption (output mismatch)
    AppCrash = 2,  ///< program crash/hang; OS still responsive
    SysCrash = 3,  ///< machine unresponsive; power cycle needed
};

constexpr size_t numRunOutcomes = 4;

/** Display name of an outcome. */
const char *runOutcomeName(RunOutcome outcome);

/** Record of one classified run. */
struct RunRecord {
    std::string workload;
    RunOutcome outcome = RunOutcome::Success;
    bool withCeNotification = false;  ///< a CE was logged this run
    bool trappedOrganically = false;  ///< kernel hit a wild index
    bool signatureMismatch = false;   ///< organic golden-compare miss
    double fluence = 0.0;             ///< fluence during the run
    Tick duration = 0;                ///< simulated wall time
    uint64_t upsetsDetected = 0;      ///< EDAC events during the run
};

/** Event tallies of one category set (per session / per workload). */
struct EventCounts {
    uint64_t sdcSilent = 0;    ///< SDCs with no hardware notification
    uint64_t sdcNotified = 0;  ///< SDCs with a corrected-error report
    uint64_t appCrash = 0;
    uint64_t sysCrash = 0;

    uint64_t sdcTotal() const { return sdcSilent + sdcNotified; }
    uint64_t total() const { return sdcTotal() + appCrash + sysCrash; }

    void
    merge(const EventCounts &other)
    {
        sdcSilent += other.sdcSilent;
        sdcNotified += other.sdcNotified;
        appCrash += other.appCrash;
        sysCrash += other.sysCrash;
    }

    bool operator==(const EventCounts &) const = default;
};

} // namespace xser::core

#endif // XSER_CORE_OUTCOME_HH
