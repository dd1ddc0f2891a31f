/**
 * @file
 * Tests for the campaign framework: the calibrated logic-susceptibility
 * model against the paper-derived cross sections, outcome
 * classification, DCS/FIT calculators, table rendering, and the
 * campaign factories.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/beam_campaign.hh"
#include "core/campaign_report.hh"
#include "core/control_pc.hh"
#include "core/dcs_calculator.hh"
#include "core/observations.hh"
#include "core/fit_calculator.hh"
#include "core/logic_susceptibility.hh"
#include "core/parallel_campaign.hh"
#include "core/table_printer.hh"
#include "sim/rng.hh"
#include "volt/timing_model.hh"

namespace xser::core {
namespace {

/* --------------------- LogicSusceptibilityModel ------------------ */

TEST(LogicModel, MatchesPaperDerivedDcsAt24GHz)
{
    volt::TimingModel timing;
    LogicSusceptibilityModel model(&timing);

    // Paper-derived targets (see calibration.hh): total SDC DCS of
    // 1.95e-10 / 3.70e-10 / 3.19e-9 at 980 / 930 / 920 mV.
    const LogicDcs nominal = model.rates(0.980, 2.4e9);
    EXPECT_NEAR((nominal.sdcSilent + nominal.sdcNotified) / 1.95e-10,
                1.0, 0.15);
    const LogicDcs safe = model.rates(0.930, 2.4e9);
    EXPECT_NEAR((safe.sdcSilent + safe.sdcNotified) / 3.70e-10, 1.0,
                0.20);
    const LogicDcs vmin = model.rates(0.920, 2.4e9);
    EXPECT_NEAR((vmin.sdcSilent + vmin.sdcNotified) / 3.19e-9, 1.0,
                0.20);

    // Crash channels: App 1.14e-10 and Sys 3.29e-10 at nominal.
    EXPECT_NEAR(nominal.appCrash / 1.14e-10, 1.0, 0.05);
    EXPECT_NEAR(nominal.sysCrash / 3.29e-10, 1.0, 0.05);
    // Crash DCS declines with undervolting (the measured trend).
    EXPECT_LT(vmin.appCrash, nominal.appCrash);
    EXPECT_LT(vmin.sysCrash, nominal.sysCrash);
}

TEST(LogicModel, SdcBlowupFactorAtVmin)
{
    // Headline result: SDC DCS at Vmin is >16x nominal (Section 6.1).
    volt::TimingModel timing;
    LogicSusceptibilityModel model(&timing);
    const LogicDcs nominal = model.rates(0.980, 2.4e9);
    const LogicDcs vmin = model.rates(0.920, 2.4e9);
    const double factor = (vmin.sdcSilent + vmin.sdcNotified) /
                          (nominal.sdcSilent + nominal.sdcNotified);
    EXPECT_GT(factor, 12.0);
    EXPECT_LT(factor, 22.0);
}

TEST(LogicModel, MatchesPaperDerivedDcsAt900MHz)
{
    volt::TimingModel timing;
    LogicSusceptibilityModel model(&timing);
    const LogicDcs low = model.rates(0.790, 0.9e9);
    // ~6 SDC / 2 App / 5 Sys in 1.48e10 n/cm^2 (Fig. 13 session).
    EXPECT_NEAR((low.sdcSilent + low.sdcNotified) / 4.05e-10, 1.0,
                0.25);
    EXPECT_NEAR(low.appCrash / 1.35e-10, 1.0, 0.05);
    EXPECT_NEAR(low.sysCrash / 3.38e-10, 1.0, 0.05);
}

TEST(LogicModel, FrequencyDecouplesSusceptibility)
{
    // Observation #6: at 900 MHz, far below its cliff the chip's logic
    // susceptibility is not inflated even at much lower voltage.
    volt::TimingModel timing;
    LogicSusceptibilityModel model(&timing);
    const LogicDcs vmin24 = model.rates(0.920, 2.4e9);
    const LogicDcs low900 = model.rates(0.790, 0.9e9);
    EXPECT_LT(low900.total(), vmin24.total() / 2.0);
}

TEST(LogicModel, SamplingMatchesRates)
{
    volt::TimingModel timing;
    LogicSusceptibilityModel model(&timing);
    workloads::WorkloadTraits traits;
    traits.sdcWeight = 1.0;
    traits.appCrashWeight = 1.0;
    traits.sysCrashWeight = 1.0;

    Rng rng(5);
    const double fluence = 2.4e8;
    const int runs = 20000;
    LogicEvents totals;
    for (int i = 0; i < runs; ++i) {
        const LogicEvents events =
            model.sampleRun(0.920, 2.4e9, fluence, traits, rng);
        totals.sdcSilent += events.sdcSilent;
        totals.sdcNotified += events.sdcNotified;
        totals.appCrash += events.appCrash;
        totals.sysCrash += events.sysCrash;
    }
    const LogicDcs dcs = model.rates(0.920, 2.4e9);
    const double exposure = fluence * runs;
    EXPECT_NEAR(static_cast<double>(totals.sdcSilent) / exposure /
                    dcs.sdcSilent,
                1.0, 0.05);
    EXPECT_NEAR(static_cast<double>(totals.sysCrash) / exposure /
                    dcs.sysCrash,
                1.0, 0.15);
}

TEST(LogicModel, WorkloadWeightsScaleRates)
{
    volt::TimingModel timing;
    LogicSusceptibilityModel model(&timing);
    workloads::WorkloadTraits heavy;
    heavy.sdcWeight = 2.0;
    workloads::WorkloadTraits light;
    light.sdcWeight = 0.5;
    Rng rng_a(1);
    Rng rng_b(1);
    uint64_t heavy_total = 0;
    uint64_t light_total = 0;
    for (int i = 0; i < 20000; ++i) {
        heavy_total +=
            model.sampleRun(0.920, 2.4e9, 2.4e8, heavy, rng_a).sdcSilent;
        light_total +=
            model.sampleRun(0.920, 2.4e9, 2.4e8, light, rng_b).sdcSilent;
    }
    EXPECT_NEAR(static_cast<double>(heavy_total) /
                    static_cast<double>(light_total),
                4.0, 0.4);
}

/* ----------------------------- ControlPc ------------------------- */

workloads::WorkloadOutput
goodOutput()
{
    workloads::WorkloadOutput output;
    output.termination = workloads::Termination::Completed;
    output.verified = true;
    output.signature = {1, 2};
    return output;
}

TEST(ControlPc, GoldenRoundTrip)
{
    ControlPc control;
    EXPECT_FALSE(control.hasGolden("CG"));
    control.setGolden("CG", goodOutput());
    EXPECT_TRUE(control.hasGolden("CG"));
    EXPECT_EQ(control.golden("CG"), (std::vector<uint64_t>{1, 2}));
}

TEST(ControlPc, ClassificationPrecedence)
{
    ControlPc control;
    control.setGolden("CG", goodOutput());

    LogicEvents none;
    RunRecord success = control.classify("CG", goodOutput(), none,
                                         false, 1e8, 100, 0);
    EXPECT_EQ(success.outcome, RunOutcome::Success);

    workloads::WorkloadOutput corrupted = goodOutput();
    corrupted.signature = {9, 9};
    RunRecord sdc = control.classify("CG", corrupted, none, false, 1e8,
                                     100, 0);
    EXPECT_EQ(sdc.outcome, RunOutcome::Sdc);
    EXPECT_TRUE(sdc.signatureMismatch);

    LogicEvents crashy;
    crashy.appCrash = 1;
    crashy.sdcSilent = 2;
    RunRecord app = control.classify("CG", corrupted, crashy, false,
                                     1e8, 100, 0);
    EXPECT_EQ(app.outcome, RunOutcome::AppCrash);

    crashy.sysCrash = 1;
    RunRecord sys = control.classify("CG", corrupted, crashy, false,
                                     1e8, 100, 0);
    EXPECT_EQ(sys.outcome, RunOutcome::SysCrash);

    workloads::WorkloadOutput trapped;
    trapped.termination = workloads::Termination::Trapped;
    RunRecord trap = control.classify("CG", trapped, none, false, 1e8,
                                      100, 0);
    EXPECT_EQ(trap.outcome, RunOutcome::AppCrash);
    EXPECT_TRUE(trap.trappedOrganically);
}

TEST(ControlPc, EventsOfCountsEverySampledEvent)
{
    ControlPc control;
    control.setGolden("CG", goodOutput());
    LogicEvents events;
    events.sdcSilent = 2;
    events.sysCrash = 1;
    RunRecord record = control.classify("CG", goodOutput(), events,
                                        false, 1e8, 100, 0);
    const EventCounts counts = control.eventsOf(record, events);
    EXPECT_EQ(counts.sdcSilent, 2u);
    EXPECT_EQ(counts.sysCrash, 1u);
    EXPECT_EQ(counts.total(), 3u);
}

TEST(ControlPc, OrganicMismatchNotifiedSplit)
{
    ControlPc control;
    control.setGolden("CG", goodOutput());
    workloads::WorkloadOutput corrupted = goodOutput();
    corrupted.signature = {7};
    LogicEvents none;
    RunRecord with_ce = control.classify("CG", corrupted, none, true,
                                         1e8, 100, 3);
    EXPECT_EQ(control.eventsOf(with_ce, none).sdcNotified, 1u);
    RunRecord without_ce = control.classify("CG", corrupted, none,
                                            false, 1e8, 100, 0);
    EXPECT_EQ(control.eventsOf(without_ce, none).sdcSilent, 1u);
}

/* --------------------------- calculators ------------------------- */

SessionResult
syntheticSession()
{
    SessionResult session;
    session.point = volt::vminPoint();
    session.beamFluxPerSecond = 1.5e6;
    session.fluence = 4.08e10;
    session.events.sdcSilent = 123;
    session.events.sdcNotified = 7;
    session.events.appCrash = 3;
    session.events.sysCrash = 8;
    session.upsetsDetected = 506;
    session.totalSramBits =
        static_cast<uint64_t>(9.5 * 1024 * 1024 * 8);
    session.avgPowerWatts = 18.15;
    return session;
}

TEST(FitCalculator, ReproducesFig11Session3)
{
    const FitBreakdown fit = FitCalculator::breakdown(syntheticSession());
    EXPECT_NEAR(fit.sdc.fit, 41.4, 0.5);
    EXPECT_NEAR(fit.appCrash.fit, 0.96, 0.05);
    EXPECT_NEAR(fit.sysCrash.fit, 2.55, 0.05);
    EXPECT_NEAR(fit.total.fit, 44.9, 0.5);
    EXPECT_LT(fit.sdc.ci.lower, fit.sdc.fit);
    EXPECT_GT(fit.sdc.ci.upper, fit.sdc.fit);
}

TEST(DcsCalculator, MatchesEventOverFluence)
{
    const DcsBreakdown dcs =
        DcsCalculator::breakdown(syntheticSession());
    EXPECT_NEAR(dcs.sdc.dcs, 130.0 / 4.08e10, 1e-12);
    EXPECT_NEAR(dcs.total.dcs, 141.0 / 4.08e10, 1e-12);
    EXPECT_NEAR(dcs.memoryUpsets.dcs, 506.0 / 4.08e10, 1e-12);
    EXPECT_EQ(dcs.sdcNotified.events, 7u);
}

TEST(SessionResult, DerivedRatesMatchTable2Session3)
{
    const SessionResult session = syntheticSession();
    // 4.08e10 / (1.5e6 * 60) = 453 minutes.
    EXPECT_NEAR(session.equivalentMinutes(), 453.0, 2.0);
    EXPECT_NEAR(session.errorsPerMinute(), 0.311, 0.01);
    EXPECT_NEAR(session.upsetsPerMinute(), 1.117, 0.02);
    EXPECT_NEAR(session.nycYearsEquivalent(), 3.58e5, 0.05e5);
    EXPECT_NEAR(session.memorySerFitPerMbit(), 2.12, 0.3);
}

/* ------------------------- report rendering ---------------------- */

TEST(Reports, Table2ContainsAllRows)
{
    const std::string text = formatTable2({syntheticSession()});
    for (const char *needle :
         {"Voltage Levels", "Fluence", "Years of NYC", "SDCs and crashes",
          "Memory upsets", "Memory SER"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
}

TEST(Reports, Table3ListsOperatingPoints)
{
    const std::string text = formatTable3();
    EXPECT_NE(text.find("Nominal"), std::string::npos);
    EXPECT_NE(text.find("Vmin"), std::string::npos);
    EXPECT_NE(text.find("790"), std::string::npos);
}

TEST(Reports, Fig8PercentagesSumSensibly)
{
    const std::string text = formatFig8({syntheticSession()});
    EXPECT_NE(text.find("SDC"), std::string::npos);
    EXPECT_NE(text.find("92."), std::string::npos);  // 130/141 = 92.2%
}

TEST(Reports, Fig11And12Render)
{
    const std::vector<SessionResult> sessions = {syntheticSession()};
    EXPECT_NE(formatFig11(sessions).find("Total FIT"),
              std::string::npos);
    EXPECT_NE(formatFig12(sessions).find("w/o any hardware"),
              std::string::npos);
    EXPECT_NE(formatFig13(sessions[0]).find("w/ corrected"),
              std::string::npos);
}

TEST(Reports, Fig5Fig6Fig7Render)
{
    SessionResult session = syntheticSession();
    WorkloadSessionStats stats;
    stats.name = "CG";
    stats.runs = 10;
    stats.fluence = 1e10;
    stats.upsetsDetected = 120;
    session.perWorkload.push_back(stats);
    const std::vector<SessionResult> sessions = {session};
    const std::string fig5 = formatFig5(sessions);
    EXPECT_NE(fig5.find("CG"), std::string::npos);
    EXPECT_NE(fig5.find("Total"), std::string::npos);
    EXPECT_NE(formatFig6(sessions).find("L3 Cache (uncorrected)"),
              std::string::npos);
    EXPECT_NE(formatFig7(session).find("900 MHz"), std::string::npos);
}

TEST(Reports, Fig9AndFig10Render)
{
    SessionResult nominal = syntheticSession();
    nominal.point = volt::nominalPoint();
    nominal.avgPowerWatts = 20.4;
    SessionResult low = syntheticSession();
    low.avgPowerWatts = 18.15;
    const std::vector<SessionResult> sessions = {nominal, low};
    const std::string fig9 = formatFig9(sessions);
    EXPECT_NE(fig9.find("20.40"), std::string::npos);
    const std::string fig10 = formatFig10(sessions);
    // Savings of the second point vs the first: (20.4-18.15)/20.4.
    EXPECT_NE(fig10.find("11.0"), std::string::npos);
}

TEST(Reports, Fig4RendersSweeps)
{
    volt::VminSweepResult sweep;
    sweep.safeVminMillivolts = 920.0;
    sweep.completeFailMillivolts = 900.0;
    sweep.steps.push_back(volt::VminStep{920.0, 100, 0, 0.0});
    sweep.steps.push_back(volt::VminStep{915.0, 100, 12, 0.12});
    const std::string text = formatFig4(sweep, sweep);
    EXPECT_NE(text.find("safe Vmin"), std::string::npos);
    EXPECT_NE(text.find("12.0%"), std::string::npos);
}

TEST(WorkloadSessionStats, RateHelpers)
{
    WorkloadSessionStats stats;
    stats.fluence = 1.5e6 * 60.0 * 10.0;  // 10 beam-equivalent minutes
    stats.upsetsDetected = 25;
    EXPECT_NEAR(stats.equivalentMinutes(1.5e6), 10.0, 1e-9);
    EXPECT_NEAR(stats.upsetsPerMinute(1.5e6), 2.5, 1e-9);
    EXPECT_EQ(stats.upsetsPerMinute(0.0), 0.0);
}

/* ------------------------ ObservationChecker --------------------- */

CampaignResult
syntheticCampaign()
{
    // Build four sessions whose numbers mirror the paper's Table 2 /
    // Fig. 8 exactly, so every observation should hold.
    auto make = [](double pmd, double soc, double freq, double fluence,
                   uint64_t sdc, uint64_t app, uint64_t sys,
                   uint64_t upsets, double power) {
        SessionResult session;
        session.point = volt::OperatingPoint{"s", pmd, soc, freq};
        session.beamFluxPerSecond = 1.5e6;
        session.fluence = fluence;
        session.events.sdcSilent = sdc - sdc / 5;
        session.events.sdcNotified = sdc / 5;
        session.events.appCrash = app;
        session.events.sysCrash = sys;
        session.upsetsDetected = upsets;
        session.totalSramBits = 80000000;
        session.avgPowerWatts = power;
        // Per-level tallies: L3-heavy split.
        session.edac[3].corrected = upsets * 70 / 100;
        session.edac[2].corrected = upsets * 16 / 100;
        session.edac[1].corrected = upsets * 3 / 100;
        session.edac[0].corrected = upsets / 100;
        return session;
    };
    CampaignResult campaign;
    campaign.sessions.push_back(
        make(980, 950, 2.4e9, 1.49e11, 29, 17, 49, 1669, 20.40));
    campaign.sessions.push_back(
        make(930, 925, 2.4e9, 1.46e11, 54, 7, 36, 1743, 18.63));
    campaign.sessions.push_back(
        make(920, 920, 2.4e9, 4.08e10, 130, 3, 8, 506, 18.15));
    campaign.sessions.push_back(
        make(790, 950, 0.9e9, 1.48e10, 6, 2, 5, 195, 10.59));
    return campaign;
}

TEST(Observations, AllHoldOnPaperNumbers)
{
    const CampaignResult campaign = syntheticCampaign();
    ObservationChecker checker(campaign);
    const auto verdicts = checker.evaluate();
    ASSERT_EQ(verdicts.size(), 9u);
    for (const auto &verdict : verdicts)
        EXPECT_TRUE(verdict.holds)
            << "#" << verdict.number << ": " << verdict.measurement;
    EXPECT_EQ(ObservationChecker::countHolding(verdicts), 9u);
}

TEST(Observations, DetectsBrokenShape)
{
    CampaignResult campaign = syntheticCampaign();
    // Sabotage observation #4: make the Vmin session crash-dominated.
    campaign.sessions[2].events.sdcSilent = 2;
    campaign.sessions[2].events.sdcNotified = 0;
    campaign.sessions[2].events.sysCrash = 130;
    ObservationChecker checker(campaign);
    const auto verdicts = checker.evaluate();
    EXPECT_FALSE(verdicts[3].holds);  // #4
    EXPECT_LT(ObservationChecker::countHolding(verdicts), 9u);
}

TEST(Observations, ZeroCountSideNeverHolds)
{
    // A small campaign can end a session without a single SDC, crash
    // or upset. A ratio over that zero count is no evidence: the check
    // must not hold, and its measurement names the empty side instead
    // of printing a ratio over a zero denominator.
    CampaignResult campaign = syntheticCampaign();
    SessionResult &nominal = campaign.sessions[0];
    nominal.events = EventCounts{};
    nominal.upsetsDetected = 0;
    campaign.sessions[2].events.appCrash = 0;
    campaign.sessions[2].events.sysCrash = 0;
    ObservationChecker checker(campaign);
    const auto verdicts = checker.evaluate();
    ASSERT_EQ(verdicts.size(), 9u);
    const auto expectNamed = [&verdicts](int number, const char *side) {
        const ObservationVerdict &verdict = verdicts[number - 1];
        EXPECT_FALSE(verdict.holds)
            << "#" << number << ": " << verdict.measurement;
        EXPECT_NE(verdict.measurement.find(side), std::string::npos)
            << "#" << number << ": " << verdict.measurement;
    };
    expectNamed(1, "no upsets at 980mV");
    expectNamed(4, "no SDCs at 980mV");
    expectNamed(5, "no upsets at 980mV");
    expectNamed(7, "no upsets at 980mV");
    expectNamed(8, "no errors at 980mV");
    expectNamed(8, "no crashes at 920mV");
    // The checks that divide by nothing empty still judge: #6 compares
    // the 900 MHz and 920 mV upset rates, both nonzero here.
    EXPECT_TRUE(verdicts[5].holds) << verdicts[5].measurement;
}

TEST(Observations, FormatRendersVerdicts)
{
    ObservationChecker checker(syntheticCampaign());
    const std::string text =
        ObservationChecker::format(checker.evaluate());
    EXPECT_NE(text.find("HOLDS"), std::string::npos);
    EXPECT_NE(text.find("upsets/min"), std::string::npos);
}

/* --------------------------- TablePrinter ------------------------ */

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter table({"a", "long_header"});
    table.addRow({"xxxxxx", "1"});
    const std::string text = table.toString();
    // Header rule present, rows padded.
    EXPECT_NE(text.find("---"), std::string::npos);
    EXPECT_NE(text.find("xxxxxx"), std::string::npos);
}

TEST(TablePrinter, Formatters)
{
    EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::sci(1.49e11, 2), "1.49E+11");
    EXPECT_EQ(TablePrinter::pct(0.305), "30.5%");
}

/* --------------------------- BeamCampaign ------------------------ */

TEST(BeamCampaign, PaperCampaignShape)
{
    const CampaignConfig config = BeamCampaign::paperCampaign(1.0);
    ASSERT_EQ(config.sessions.size(), 4u);
    EXPECT_EQ(config.sessions[0].point.pmdMillivolts, 980.0);
    EXPECT_EQ(config.sessions[3].point.frequencyHz, 0.9e9);
    EXPECT_EQ(config.sessions[2].maxErrorEvents, 141u);
    EXPECT_NEAR(config.sessions[3].maxFluence, 1.48e10, 1e7);
    // Distinct seeds per session.
    EXPECT_NE(config.sessions[0].seed, config.sessions[1].seed);
}

TEST(BeamCampaign, ScaleShrinksTargets)
{
    const CampaignConfig full = BeamCampaign::paperCampaign(1.0);
    const CampaignConfig fast = BeamCampaign::paperCampaign(0.2);
    EXPECT_LT(fast.sessions[0].maxFluence,
              full.sessions[0].maxFluence * 0.25);
    EXPECT_LT(fast.sessions[0].maxErrorEvents,
              full.sessions[0].maxErrorEvents);
    EXPECT_GE(fast.sessions[0].maxErrorEvents, 8u);
}

TEST(BeamCampaign, ScaledEventTargetNeverTruncatesToZero)
{
    EXPECT_EQ(scaledEventTarget(141, 1.0), 141u);
    EXPECT_EQ(scaledEventTarget(80, 0.22), 17u);
    // A bare cast gives 0 below a scale of 1/base.
    EXPECT_EQ(scaledEventTarget(80, 0.005), 8u);
}

TEST(BeamCampaign, Campaign24GHzDropsThe900MHzSession)
{
    const CampaignConfig config = BeamCampaign::campaign24GHz(1.0);
    ASSERT_EQ(config.sessions.size(), 3u);
    for (const auto &session : config.sessions)
        EXPECT_EQ(session.point.frequencyHz, 2.4e9);
}

/* ---------------------- golden campaign pins --------------------- */

/*
 * Golden-value regression: the exact headline numbers of
 * paperCampaign(scale=0.02, seed=0x5e5510) as produced by the seed
 * implementation. The reproduced figures flow from these tallies, so
 * any refactor that shifts them -- a reordered RNG draw, a changed
 * merge order, an accidental extra sample -- fails here instead of
 * silently bending Table 2 / Figs. 5-13. Integer tallies are pinned
 * exactly; accumulated floats get a 1e-6 relative band (they are
 * bit-stable on one platform, but libm rounding may differ across
 * toolchains). The run goes through the production engine -- worker
 * pool, checkpoint/fork, canonical merge -- that `xser campaign` uses.
 */
TEST(GoldenCampaign, HeadlineNumbersPinned)
{
    ParallelRunConfig run;
    run.jobs = 4;
    ParallelCampaignRunner runner(
        BeamCampaign::paperCampaign(0.02, 0x5e5510ULL), run);
    const ReplicatedCampaignResult sweep = runner.executeAll();
    ASSERT_EQ(sweep.replicates.size(), 1u);
    const CampaignResult &result = sweep.replicates.front();
    ASSERT_EQ(result.sessions.size(), 4u);

    struct Golden {
        uint64_t runs;
        uint64_t upsets;
        uint64_t sdcSilent;
        uint64_t sdcNotified;
        uint64_t appCrash;
        uint64_t sysCrash;
        double fluence;
        double totalFit;
    };
    /*
     * Re-derived when beam sampling moved to dose-space skip-ahead
     * arrivals (the event-driven fast path): arrivals now land at their
     * exact crossing instant instead of being batched per advance
     * quantum, which legitimately shifts which reads encounter which
     * flips. Runs, outcome tallies, fluence, and FIT were unchanged by
     * the re-derivation; only upsetsDetected moved. Equivalence of the
     * fast path itself is gated separately (fast-on == fast-off
     * bit-identity in test_parallel.cc / test_trace.cc).
     */
    const Golden golden[4] = {
        // 980 mV @ 2.4 GHz
        {13, 57, 1, 1, 1, 2, 3.0735515e9, 21.1481734},
        // 930 mV @ 2.4 GHz
        {13, 35, 0, 0, 0, 0, 3.09413664e9, 0.0},
        // 920 mV @ 2.4 GHz (Vmin): the SDC explosion
        {8, 29, 5, 0, 0, 3, 1.87563489e9, 55.4478917},
        // 790 mV @ 900 MHz
        {1, 17, 0, 0, 0, 0, 5.63475351e8, 0.0},
    };

    for (size_t s = 0; s < 4; ++s) {
        SCOPED_TRACE("session " + std::to_string(s));
        const SessionResult &session = result.sessions[s];
        EXPECT_EQ(session.runs, golden[s].runs);
        EXPECT_EQ(session.upsetsDetected, golden[s].upsets);
        EXPECT_EQ(session.events.sdcSilent, golden[s].sdcSilent);
        EXPECT_EQ(session.events.sdcNotified, golden[s].sdcNotified);
        EXPECT_EQ(session.events.appCrash, golden[s].appCrash);
        EXPECT_EQ(session.events.sysCrash, golden[s].sysCrash);
        EXPECT_NEAR(session.fluence, golden[s].fluence,
                    1e-6 * golden[s].fluence);
        const FitBreakdown fit = FitCalculator::breakdown(session);
        EXPECT_NEAR(fit.total.fit, golden[s].totalFit,
                    1e-6 * golden[s].totalFit + 1e-9);
    }
}

TEST(Outcome, Names)
{
    EXPECT_STREQ(runOutcomeName(RunOutcome::Success), "Success");
    EXPECT_STREQ(runOutcomeName(RunOutcome::Sdc), "SDC");
    EXPECT_STREQ(runOutcomeName(RunOutcome::AppCrash), "AppCrash");
    EXPECT_STREQ(runOutcomeName(RunOutcome::SysCrash), "SysCrash");
}

} // namespace
} // namespace xser::core
