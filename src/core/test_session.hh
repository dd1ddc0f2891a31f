/**
 * @file
 * One beam test session (a row of Table 2): run the benchmark suite
 * round-robin under accelerated irradiation at a fixed operating point
 * until the stop criteria of Section 3.5 are met (enough error events
 * or enough fluence), classifying every run and tallying every event.
 */

#ifndef XSER_CORE_TEST_SESSION_HH
#define XSER_CORE_TEST_SESSION_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/calibration.hh"
#include "core/golden_prefix.hh"
#include "core/outcome.hh"
#include "cpu/xgene2_platform.hh"
#include "mem/scrubber.hh"
#include "rad/beam_source.hh"
#include "sim/bytes.hh"
#include "trace/trace_sink.hh"
#include "volt/operating_point.hh"

namespace xser::core {

/** Session parameters. */
struct SessionConfig {
    volt::OperatingPoint point;          ///< voltage/frequency setting
    std::vector<std::string> workloadNames;  ///< empty = full suite

    /*
     * Stop criteria (Section 3.5): 100+ error events or 1e11+ n/cm^2,
     * whichever comes first. Defaults are scaled to keep a session in
     * the tens of seconds; the XSER_FULL environment variable in the
     * benches restores paper-scale targets.
     */
    uint64_t maxErrorEvents = 100;
    double maxFluence = 1.5e11;
    uint64_t maxRuns = 1000000;

    /** Target fluence per run (keeps events/run in the paper's regime). */
    double fluencePerRun = sessionCalibration().fluencePerRun;

    /**
     * Uncounted beam-on warm-up rounds (each round runs the full
     * suite once). Short simulated sessions start with an empty
     * latent-flip population, so their early detection rates sit
     * below steady state (the paper's 1000+-run sessions amortize
     * this; ours must warm into it). Counters reset after warm-up.
     */
    unsigned warmupRounds = 8;

    rad::BeamConfig beam;            ///< environment; timeScale is
                                     ///< retuned per workload
    mem::ScrubberConfig scrub;       ///< patrol scrub (see below)
    uint64_t quantumAccesses = 4096; ///< hook period in accesses
    uint64_t seed = 0x5e5510ULL;

    /**
     * Optional lifecycle trace sink (not owned; null = tracing off).
     * Attached to every SRAM array for the session and cleared together
     * with the other counters when the measured phase begins, so trace
     * counts line up with the session's EDAC tallies.
     */
    trace::TraceSink *traceSink = nullptr;

    SessionConfig();
};

/** Per-workload accounting within a session (Fig. 5's resolution). */
struct WorkloadSessionStats {
    std::string name;
    uint64_t runs = 0;
    double fluence = 0.0;
    Tick duration = 0;
    uint64_t upsetsDetected = 0;
    EventCounts events;

    /** Paper-equivalent beam minutes of this slice. */
    double equivalentMinutes(double beam_flux_per_second) const;

    /** Detected upsets per equivalent minute (Fig. 5's y-axis). */
    double upsetsPerMinute(double beam_flux_per_second) const;

    bool operator==(const WorkloadSessionStats &) const = default;
};

/** Full session outcome (a Table 2 column). */
struct SessionResult {
    volt::OperatingPoint point;
    double beamFluxPerSecond = 0.0;  ///< unaccelerated beam flux
    uint64_t runs = 0;
    double fluence = 0.0;
    Tick duration = 0;
    EventCounts events;
    std::array<mem::EdacTally, mem::numCacheLevels> edac{};
    uint64_t upsetsDetected = 0;   ///< total CE+UE (Table 2 row 8)
    uint64_t rawUpsetEvents = 0;   ///< beam-injected events
    uint64_t totalSramBits = 0;
    double avgPowerWatts = 0.0;
    std::vector<WorkloadSessionStats> perWorkload;

    /** Table 2 row 4: minutes of beam time at the unaccelerated flux. */
    double equivalentMinutes() const;

    /** Table 2 row 5: years of natural NYC irradiation. */
    double nycYearsEquivalent() const;

    /** Table 2 row 7: SDC+crash events per equivalent minute. */
    double errorsPerMinute() const;

    /** Table 2 row 9: detected memory upsets per equivalent minute. */
    double upsetsPerMinute() const;

    /** Table 2 row 10: memory SER in FIT per Mbit. */
    double memorySerFitPerMbit() const;

    /** Bit-identity: every field, doubles compared exactly. */
    bool operator==(const SessionResult &) const = default;
};

/** The prefix key of a session run on a platform built from `platform`. */
PrefixKey prefixKeyOf(const cpu::PlatformConfig &platform,
                      const SessionConfig &session);

/**
 * Executes one session against a platform.
 *
 * A session splits into two phases with a checkpointable seam between
 * them (DESIGN.md section 10):
 *
 *  - The *golden prefix* (runPrefix): build the suite, record golden
 *    references beam-off, flush the hierarchy. It is a GoldenPrefix
 *    run on the session's PrefixKey alone -- no seed, operating
 *    point, scrub setting or stop criterion reaches it -- so one
 *    prefix serves every session and replicate sharing the key.
 *
 *  - The *continuation* (runContinuation): apply the operating point
 *    and replay the prefix's quantum timeline through the clock and
 *    the patrol scrubber (the seam), then construct the beam from the
 *    session seed, warm up, and measure. Everything time-, point- or
 *    seed-dependent lives here.
 *
 * visitPrefix saves or loads the prefix, letting a campaign fork many
 * continuations from one prefix instead of replaying it for each.
 * execute() == runPrefix() + runContinuation().
 */
class TestSession
{
  public:
    /**
     * @param platform The server under test (not owned; the session
     *        applies its operating point and drives it).
     * @param config Session parameters.
     */
    TestSession(cpu::XGene2Platform *platform,
                const SessionConfig &config);

    /** Run the whole session. */
    SessionResult execute();

    /**
     * Run the golden prefix of this session's key. Fatal if a prefix
     * already ran or was loaded on this session object.
     */
    void runPrefix();

    /**
     * Save the prefix (requires a completed one, run or loaded), or --
     * on a loading archive -- adopt a prefix saved under the same key
     * (the checkpoint envelope's key hash guards this; see
     * core/checkpoint.hh). Loading replaces runPrefix().
     */
    void visitPrefix(Archive &ar);

    /**
     * Run the continuation: the seam, beam construction, warm-up,
     * measured phase. Requires a prefix (run or restored). May be
     * called once per session object.
     */
    SessionResult runContinuation();

  private:
    cpu::XGene2Platform *platform_;
    SessionConfig config_;
    PrefixKey key_;
    GoldenPrefix prefix_;
    bool prefixReady_ = false;
};

} // namespace xser::core

#endif // XSER_CORE_TEST_SESSION_HH
