/**
 * @file
 * TestSession implementation.
 */

#include "core/test_session.hh"

#include <algorithm>
#include <cassert>
#include <map>

#include "core/control_pc.hh"
#include "core/logic_susceptibility.hh"
#include "rad/fit_math.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workloads/workload.hh"

namespace xser::core {

SessionConfig::SessionConfig()
    : point(volt::nominalPoint()),
      workloadNames(workloads::suiteNames())
{
    /*
     * Patrol scrub: L2 only. The paper's observed rates (~1 upset/min
     * against its own ~12/min raw estimate, Section 3.3) imply most
     * detection is demand-driven; in this model the L3's detection
     * comes from the streaming working set re-reading resident lines,
     * while L2 lines are usually evicted clean (unread) before any
     * re-reference -- a light L2 patrol scrub supplies the residual
     * detection the EDAC logs show. bench_ablation_scrub sweeps this.
     */
    scrub.enabled = true;
    scrub.l3Enabled = false;
    scrub.l2PassPeriod = ticks::fromSeconds(1300e-6);
}

double
WorkloadSessionStats::equivalentMinutes(double beam_flux_per_second) const
{
    if (beam_flux_per_second <= 0.0)
        return 0.0;
    return fluence / (beam_flux_per_second * 60.0);
}

double
WorkloadSessionStats::upsetsPerMinute(double beam_flux_per_second) const
{
    const double minutes = equivalentMinutes(beam_flux_per_second);
    return minutes > 0.0
        ? static_cast<double>(upsetsDetected) / minutes : 0.0;
}

double
SessionResult::equivalentMinutes() const
{
    if (beamFluxPerSecond <= 0.0)
        return 0.0;
    return fluence / (beamFluxPerSecond * 60.0);
}

double
SessionResult::nycYearsEquivalent() const
{
    return rad::nycYearsEquivalent(fluence);
}

double
SessionResult::errorsPerMinute() const
{
    const double minutes = equivalentMinutes();
    return minutes > 0.0
        ? static_cast<double>(events.total()) / minutes : 0.0;
}

double
SessionResult::upsetsPerMinute() const
{
    const double minutes = equivalentMinutes();
    return minutes > 0.0
        ? static_cast<double>(upsetsDetected) / minutes : 0.0;
}

double
SessionResult::memorySerFitPerMbit() const
{
    if (fluence <= 0.0 || totalSramBits == 0)
        return 0.0;
    return rad::fitPerMbit(upsetsDetected, fluence, totalSramBits);
}

PrefixKey
prefixKeyOf(const cpu::PlatformConfig &platform,
            const SessionConfig &session)
{
    return PrefixKey{platform, session.workloadNames,
                     session.quantumAccesses};
}

TestSession::TestSession(cpu::XGene2Platform *platform,
                         const SessionConfig &config)
    : platform_(platform), config_(config)
{
    XSER_ASSERT(platform_ != nullptr, "session needs a platform");
    if (config_.workloadNames.empty())
        fatal("session needs at least one workload");
    if (config_.fluencePerRun <= 0.0)
        fatal("fluence per run must be positive");
    key_ = prefixKeyOf(platform_->config(), config_);
}

SessionResult
TestSession::execute()
{
    runPrefix();
    return runContinuation();
}

void
TestSession::runPrefix()
{
    XSER_ASSERT(!prefixReady_, "session prefix already ran");
    prefix_.run(*platform_, key_);
    prefixReady_ = true;
}

void
TestSession::visitPrefix(Archive &ar)
{
    if (ar.loading())
        XSER_ASSERT(!prefixReady_, "session prefix already ran");
    else
        XSER_ASSERT(prefixReady_, "saving a prefix needs a completed one");
    prefix_.visit(ar, *platform_, key_);
    prefixReady_ = true;
}

SessionResult
TestSession::runContinuation()
{
    XSER_ASSERT(prefixReady_,
                "runContinuation needs a prefix (run or restored)");
    prefixReady_ = false;  // single-shot: the run consumes the prefix
    auto &platform = *platform_;
    auto &memory = platform.memory();
    auto &edac = platform.edac();
    auto &suite = prefix_.suite();
    const ControlPc &control = prefix_.control();

    // The seam: everything the prefix left out because it depends on
    // time. The operating point sets the clock rate; the scrub engine
    // shares the PMD clock, so its wall-time pass rate tracks the core
    // frequency (keeps detection efficiency per unit fluence
    // frequency-consistent, cf. Fig. 7's L2 level). Replaying the
    // prefix's quanta then moves the clock and the scrubber to where a
    // timed prefix would have left them, and yields each workload's
    // golden run length.
    platform.applyOperatingPoint(config_.point);
    mem::ScrubberConfig scrub_config = config_.scrub;
    scrub_config.clockScale = config_.point.frequencyHz / 2.4e9;
    mem::Scrubber scrubber(scrub_config, &memory);
    std::vector<double> run_seconds = prefix_.replay(platform, scrubber);

    // Attach (or detach, when null) the lifecycle trace sink. The
    // prefix and the seam emit no events -- no corruption exists
    // beam-off, and clean scrubs/reads record nothing -- so attaching
    // here observes exactly what attaching before the prefix would
    // have.
    trace::TraceSink *trace_sink = config_.traceSink;
    memory.setTraceSink(trace_sink);
    edac.setTraceSink(trace_sink);

    Rng session_rng(config_.seed);
    Rng logic_rng = session_rng.fork("logic");

    // Radiation machinery. The beam is built here, not in the prefix:
    // its RNG streams derive from the (replicate-specific) session
    // seed, and construction itself touches no platform state, so a
    // restored prefix forks into any number of distinct continuations.
    rad::CrossSectionModel xsection;
    {
        const auto &cal = sessionCalibration();
        auto tune = [&xsection](mem::CacheLevel level, double sigma0) {
            rad::ArraySensitivity s = xsection.sensitivity(level);
            s.sigma0Cm2PerBit = sigma0;
            xsection.setSensitivity(level, s);
        };
        tune(mem::CacheLevel::Tlb, cal.sigma0Tlb);
        tune(mem::CacheLevel::L1, cal.sigma0L1);
        tune(mem::CacheLevel::L2, cal.sigma0L2);
        tune(mem::CacheLevel::L3, cal.sigma0L3);
    }
    rad::MbuModel mbu;
    rad::BeamConfig beam_config = config_.beam;
    beam_config.seed ^= config_.seed;
    rad::BeamSource beam(beam_config, &xsection, &mbu,
                         memory.beamTargets());
    beam.setVoltages(config_.point.pmdVolts(), config_.point.socVolts());

    LogicSusceptibilityModel logic(&platform.timing());

    // The quantum hook: convert accumulated access cycles into elapsed
    // simulated time, then deliver beam, scrub, and front-end traffic
    // for that interval.
    bool beam_on = false;
    auto quantum = [&]() {
        const uint64_t cycles = memory.cyclesAccumulated();
        memory.clearCycles();
        const Tick elapsed = platform.advanceForCycles(cycles);
        if (beam_on)
            beam.advance(elapsed);
        scrubber.advance(elapsed);
        platform.driveFrontEnd(config_.quantumAccesses /
                               platform.numCores());
    };

    // Warm-up: run the suite under beam without counting anything, so
    // the latent-flip population and cache churn reach their steady
    // state before measurement begins (see SessionConfig::warmupRounds).
    beam_on = true;
    for (unsigned round = 0; round < config_.warmupRounds; ++round) {
        for (size_t slot = 0; slot < suite.size(); ++slot) {
            auto &workload = *suite[slot];
            const auto &traits = workload.traits();
            beam.setTimeScale(
                config_.fluencePerRun *
                (2.4e9 / config_.point.frequencyHz) /
                (beam_config.environment.neutronsPerCm2PerSecond *
                 std::max(run_seconds[slot], 1e-9)));
            platform.setWorkloadFootprint(traits.codeFootprintWords,
                                          traits.tlbFootprintEntries);
            const Tick start = platform.clock().now();
            workloads::RunContext ctx(&memory, quantum,
                                      config_.quantumAccesses);
            workload.run(ctx);
            quantum();
            run_seconds[slot] =
                0.5 * run_seconds[slot] +
                0.5 * ticks::toSeconds(platform.clock().now() - start);
        }
    }
    edac.clear();
    beam.clearCounters();
    memory.clearDeliveryCounters();
    // The trace must cover exactly the measured phase the EDAC tallies
    // cover, or the cross-check below would be vacuous.
    if (trace_sink != nullptr)
        trace_sink->clear();

    SessionResult result;
    result.point = config_.point;
    result.beamFluxPerSecond =
        beam_config.environment.neutronsPerCm2PerSecond;
    result.totalSramBits = memory.totalSramBits();
    result.avgPowerWatts = platform.currentPowerWatts(
        prefix_.activitySum() / static_cast<double>(suite.size()));

    std::map<std::string, WorkloadSessionStats> per_workload;
    for (const auto &name : config_.workloadNames)
        per_workload[name].name = name;

    // Beam phase: every workload runs once per round, in an order
    // reshuffled each round. Detection of latent upsets is bursty --
    // the run after a light (low-churn, low-read) benchmark inherits a
    // burst of the accumulated debt -- so a fixed rotation would bias
    // per-benchmark attribution systematically; shuffling turns the
    // bias into noise that averages out (Fig. 5).
    beam_on = true;
    Rng order_rng = session_rng.fork("order");
    std::vector<size_t> order(suite.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    size_t position = order.size();  // force a shuffle on first use
    while (result.runs < config_.maxRuns &&
           result.events.total() < config_.maxErrorEvents &&
           result.fluence < config_.maxFluence) {
        if (position >= order.size()) {
            for (size_t i = order.size(); i > 1; --i)
                std::swap(order[i - 1],
                          order[order_rng.nextBounded(i)]);
            position = 0;
        }
        const size_t slot = order[position++];
        auto &workload = *suite[slot];
        const auto &traits = workload.traits();
        const double expected_seconds = run_seconds[slot];

        // Retune the acceleration so a 2.4 GHz-reference run receives
        // the target fluence. A slower clock stretches the run and
        // soaks proportionally more beam, exactly as on real hardware,
        // so the target scales with 2.4 GHz / f.
        const double fluence_target =
            config_.fluencePerRun * (2.4e9 / config_.point.frequencyHz);
        beam.setTimeScale(
            fluence_target /
            (beam_config.environment.neutronsPerCm2PerSecond *
             std::max(expected_seconds, 1e-9)));

        platform.setWorkloadFootprint(traits.codeFootprintWords,
                                      traits.tlbFootprintEntries);

        const double fluence_before = beam.fluence();
        const uint64_t upsets_before = edac.totalUpsets();
        const uint64_t corrected_before = edac.totalCorrected();
        const Tick start = platform.clock().now();

        workloads::RunContext ctx(&memory, quantum,
                                  config_.quantumAccesses);
        workloads::WorkloadOutput output = workload.run(ctx);
        quantum();  // flush the tail of the run

        const double run_fluence = beam.fluence() - fluence_before;
        const Tick run_duration = platform.clock().now() - start;
        const uint64_t run_upsets = edac.totalUpsets() - upsets_before;
        // Track the run length adaptively: the golden run is cold
        // (cache fills inflate it), so fold in the measured warm
        // durations to keep fluence-per-run on target.
        run_seconds[slot] = 0.5 * run_seconds[slot] +
                            0.5 * ticks::toSeconds(run_duration);
        const bool ce_logged =
            edac.totalCorrected() > corrected_before;

        const LogicEvents logic_events = logic.sampleRun(
            config_.point.pmdVolts(), config_.point.frequencyHz,
            run_fluence, traits, logic_rng);

        RunRecord record = control.classify(
            traits.name, output, logic_events, ce_logged,
            run_fluence, run_duration, run_upsets);
        const EventCounts run_events =
            control.eventsOf(record, logic_events);

        if (trace_sink != nullptr) {
            // Close the lifecycle: one record per classified run.
            // word = suite slot, bit = RunOutcome, aux = flag bits.
            const uint64_t flags =
                (record.withCeNotification ? 1u : 0u) |
                (record.trappedOrganically ? 2u : 0u) |
                (record.signatureMismatch ? 4u : 0u);
            trace_sink->record(
                {trace::EventType::OutcomeClassified,
                 platform.clock().now(), trace::noArray,
                 static_cast<uint64_t>(slot),
                 static_cast<uint32_t>(record.outcome), flags});
        }

        result.events.merge(run_events);
        result.fluence += run_fluence;
        result.duration += run_duration;
        ++result.runs;

        auto &stats = per_workload[traits.name];
        ++stats.runs;
        stats.fluence += run_fluence;
        stats.duration += run_duration;
        stats.upsetsDetected += run_upsets;
        stats.events.merge(run_events);
    }

    for (size_t level = 0; level < mem::numCacheLevels; ++level)
        result.edac[level] =
            edac.tally(static_cast<mem::CacheLevel>(level));
    result.upsetsDetected = edac.totalUpsets();
    result.rawUpsetEvents = beam.upsetEvents();
    for (auto &[name, stats] : per_workload)
        result.perWorkload.push_back(stats);

    // Debug-build cross-check: every EDAC tally must have a matching
    // hardware-visible detection record in the trace.
    assert(edac.consistentWithTrace());

    // Detach before the platform is reused: a later untraced session
    // must not write into this session's (possibly dead) sink.
    memory.setTraceSink(nullptr);
    edac.setTraceSink(nullptr);
    return result;
}

} // namespace xser::core
