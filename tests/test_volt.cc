/**
 * @file
 * Tests for the voltage module: domains, the cliff timing model, safe
 * Vmin characterization (Fig. 4 shape), the calibrated power model
 * (Fig. 9 values), and the DVFS ladder.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "volt/operating_point.hh"
#include "volt/power_model.hh"
#include "volt/process_variation.hh"
#include "volt/timing_model.hh"
#include "volt/vmin_characterizer.hh"
#include "volt/voltage_domain.hh"

namespace xser::volt {
namespace {

/* -------------------------- OperatingPoint ----------------------- */

TEST(OperatingPoint, Table3Values)
{
    const OperatingPoint nominal = nominalPoint();
    EXPECT_EQ(nominal.pmdMillivolts, 980.0);
    EXPECT_EQ(nominal.socMillivolts, 950.0);
    EXPECT_EQ(nominal.frequencyHz, 2.4e9);

    const OperatingPoint safe = safePoint();
    EXPECT_EQ(safe.pmdMillivolts, 930.0);
    EXPECT_EQ(safe.socMillivolts, 925.0);

    const OperatingPoint vmin = vminPoint();
    EXPECT_EQ(vmin.pmdMillivolts, 920.0);
    EXPECT_EQ(vmin.socMillivolts, 920.0);

    const OperatingPoint low = vmin900Point();
    EXPECT_EQ(low.pmdMillivolts, 790.0);
    EXPECT_EQ(low.socMillivolts, 950.0);  // SoC stays nominal
    EXPECT_EQ(low.frequencyHz, 0.9e9);

    EXPECT_EQ(paperOperatingPoints().size(), 4u);
    EXPECT_EQ(points24GHz().size(), 3u);
}

TEST(OperatingPoint, Labels)
{
    EXPECT_EQ(vminPoint().label(), "920mV @ 2.4GHz");
    EXPECT_EQ(vmin900Point().label(), "790mV @ 900MHz");
}

/* -------------------------- VoltageDomain ------------------------ */

TEST(VoltageDomain, StartsAtNominal)
{
    VoltageDomain pmd = makePmdDomain();
    EXPECT_EQ(pmd.millivolts(), 980.0);
    EXPECT_DOUBLE_EQ(pmd.volts(), 0.980);
    VoltageDomain soc = makeSocDomain();
    EXPECT_EQ(soc.millivolts(), 950.0);
}

TEST(VoltageDomain, StepDownOnGrid)
{
    VoltageDomain pmd = makePmdDomain();
    pmd.stepDown(2);
    EXPECT_EQ(pmd.millivolts(), 970.0);
    pmd.setMillivolts(920.0);
    EXPECT_EQ(pmd.guardbandMillivolts(), 60.0);
    pmd.resetToNominal();
    EXPECT_EQ(pmd.millivolts(), 980.0);
}

TEST(VoltageDomainDeath, RejectsOffGridAndOutOfRange)
{
    VoltageDomain pmd = makePmdDomain();
    EXPECT_EXIT(pmd.setMillivolts(977.0), ::testing::ExitedWithCode(1),
                "off the");
    EXPECT_EXIT(pmd.setMillivolts(985.0), ::testing::ExitedWithCode(1),
                "outside");
    EXPECT_EXIT(pmd.setMillivolts(100.0), ::testing::ExitedWithCode(1),
                "outside");
}

/* --------------------------- TimingModel ------------------------- */

TEST(TimingModel, DelayDecreasesWithVoltage)
{
    TimingModel model;
    double previous = model.pathDelayUnits(0.5);
    for (double v = 0.55; v <= 1.1; v += 0.05) {
        const double delay = model.pathDelayUnits(v);
        EXPECT_LT(delay, previous);
        previous = delay;
    }
}

TEST(TimingModel, CliffMechanismsPerFrequency)
{
    TimingModel model;
    // At 2.4 GHz the logic-timing cliff dominates (~908 mV).
    EXPECT_EQ(model.mechanismAt(2.4e9), CliffMechanism::LogicTiming);
    EXPECT_NEAR(model.cliffVolts(2.4e9), 0.908, 1e-6);
    // At 900 MHz the alpha-power timing cliff is far below the SRAM
    // floor, so the floor dominates (Fig. 4 right).
    EXPECT_EQ(model.mechanismAt(0.9e9), CliffMechanism::SramStability);
    EXPECT_NEAR(model.cliffVolts(0.9e9), 0.7845, 1e-6);
    EXPECT_LT(model.logicCliffVolts(0.9e9), 0.60);
}

TEST(TimingModel, LogicCliffInvertsDelay)
{
    TimingModel model;
    // At the anchor frequency the cliff is the anchor itself.
    EXPECT_NEAR(model.logicCliffVolts(2.4e9), 0.908, 1e-4);
    // Higher frequency -> higher cliff.
    EXPECT_GT(model.logicCliffVolts(3.0e9), 0.908);
}

TEST(TimingModel, FailureProbabilityMonotoneInVoltage)
{
    TimingModel model;
    double previous = 1.0;
    for (double mv = 890; mv <= 935; mv += 5) {
        const double pfail =
            model.runFailureProbability(mv / 1000.0, 2.4e9);
        EXPECT_LE(pfail, previous + 1e-12);
        previous = pfail;
    }
    // Safe at 920 mV, hopeless at 900 mV (Fig. 4 left).
    EXPECT_LT(model.runFailureProbability(0.920, 2.4e9), 0.01);
    EXPECT_GT(model.runFailureProbability(0.900, 2.4e9), 0.95);
    // And the 900 MHz window (Fig. 4 right).
    EXPECT_LT(model.runFailureProbability(0.790, 0.9e9), 0.01);
    EXPECT_GT(model.runFailureProbability(0.780, 0.9e9), 0.95);
}

TEST(TimingModel, NormalCdfSanity)
{
    EXPECT_NEAR(normalCdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(normalCdf(1.96), 0.975, 1e-3);
    EXPECT_NEAR(normalCdf(-1.96), 0.025, 1e-3);
}

TEST(TimingModel, TemperatureInsensitiveUpTo50C)
{
    // Section 3.4: the safe Vmin was unaffected up to 50 C.
    for (double temp : {25.0, 40.0, 45.0, 50.0}) {
        TimingModelConfig config;
        config.temperatureCelsius = temp;
        TimingModel model(config);
        EXPECT_NEAR(model.cliffVolts(2.4e9), 0.908, 1e-9) << temp;
    }
    // Above the limit the cliff erodes upward.
    TimingModelConfig hot;
    hot.temperatureCelsius = 70.0;
    EXPECT_GT(TimingModel(hot).cliffVolts(2.4e9), 0.918);
}

/* ------------------------- ProcessVariation ---------------------- */

TEST(ProcessVariation, DeterministicPerChipSeed)
{
    ProcessVariation a(8, 0.002, 42);
    ProcessVariation b(8, 0.002, 42);
    ProcessVariation c(8, 0.002, 43);
    for (unsigned core = 0; core < 8; ++core)
        EXPECT_EQ(a.coreOffsetVolts(core), b.coreOffsetVolts(core));
    bool different = false;
    for (unsigned core = 0; core < 8; ++core)
        different |= a.coreOffsetVolts(core) != c.coreOffsetVolts(core);
    EXPECT_TRUE(different);
}

TEST(ProcessVariation, WorstOffsetIsMax)
{
    ProcessVariation variation(8, 0.002, 7);
    double max_offset = -1e9;
    for (unsigned core = 0; core < 8; ++core)
        max_offset = std::max(max_offset,
                              variation.coreOffsetVolts(core));
    EXPECT_DOUBLE_EQ(variation.worstOffsetVolts(), max_offset);
    EXPECT_DOUBLE_EQ(
        variation.coreOffsetVolts(variation.weakestCore()), max_offset);
}

/* ------------------------ VminCharacterizer ---------------------- */

TEST(VminCharacterizer, SweepFindsPaperWindow24GHz)
{
    TimingModel model;
    ProcessVariation variation(8, 0.0015, 0x86e2ULL);
    VminCharacterizer characterizer(model, variation);
    VminSweepConfig config;
    config.frequencyHz = 2.4e9;
    config.startMillivolts = 980.0;
    config.stopMillivolts = 890.0;
    config.runsPerStep = 400;
    const VminSweepResult result = characterizer.sweep(config);

    // The safe Vmin must land in the 915..930 band (paper: 920) and
    // complete failure must be reached by 895-900 mV.
    EXPECT_GE(result.safeVminMillivolts, 915.0);
    EXPECT_LE(result.safeVminMillivolts, 930.0);
    EXPECT_GT(result.completeFailMillivolts, 0.0);
    EXPECT_LE(result.completeFailMillivolts, 905.0);

    // pfail is (statistically) monotone: first step with pfail = 1
    // never recovers.
    bool complete = false;
    for (const auto &step : result.steps) {
        if (complete) {
            EXPECT_GT(step.pfail, 0.9);
        }
        if (step.pfail >= 1.0)
            complete = true;
    }
}

TEST(VminCharacterizer, SweepFindsPaperWindow900MHz)
{
    TimingModel model;
    ProcessVariation variation(8, 0.0015, 0x86e2ULL);
    VminCharacterizer characterizer(model, variation);
    VminSweepConfig config;
    config.frequencyHz = 0.9e9;
    config.startMillivolts = 820.0;
    config.stopMillivolts = 760.0;
    config.runsPerStep = 400;
    const VminSweepResult result = characterizer.sweep(config);
    EXPECT_GE(result.safeVminMillivolts, 785.0);
    EXPECT_LE(result.safeVminMillivolts, 800.0);
    // The 900 MHz window is narrower than the 2.4 GHz one (Fig. 4).
    EXPECT_LE(result.safeVminMillivolts - result.completeFailMillivolts,
              20.0);
}

TEST(VminCharacterizer, AnalyticMatchesMonteCarlo)
{
    TimingModel model;
    ProcessVariation variation(8, 0.0015, 3);
    VminCharacterizer characterizer(model, variation);
    VminSweepConfig config;
    config.runsPerStep = 4000;
    config.startMillivolts = 915.0;
    config.stopMillivolts = 905.0;
    const VminSweepResult result = characterizer.sweep(config);
    for (const auto &step : result.steps) {
        const double analytic =
            characterizer.pfailAnalytic(step.millivolts, 2.4e9);
        EXPECT_NEAR(step.pfail, analytic,
                    5.0 * std::sqrt(analytic * (1 - analytic) /
                                    config.runsPerStep) + 0.01);
    }
}

/* ---------------------------- PowerModel ------------------------- */

TEST(PowerModel, ReproducesPaperMeasurements)
{
    // Fig. 9: 20.40 / 18.63 / 18.15 / 10.59 W. The analytic fit is
    // documented to land within ~1.5 %.
    PowerModel model;
    EXPECT_NEAR(model.totalWatts(nominalPoint()), 20.40, 0.10);
    EXPECT_NEAR(model.totalWatts(safePoint()), 18.63, 0.30);
    EXPECT_NEAR(model.totalWatts(vminPoint()), 18.15, 0.30);
    EXPECT_NEAR(model.totalWatts(vmin900Point()), 10.59, 0.20);
}

TEST(PowerModel, SavingsMatchFig10)
{
    PowerModel model;
    const OperatingPoint nominal = nominalPoint();
    // Paper: 8.7% @ 930 mV, 11.0% @ 920 mV, 48.1% @ 790 mV/900 MHz.
    EXPECT_NEAR(model.savingsPercent(safePoint(), nominal), 8.7, 1.5);
    EXPECT_NEAR(model.savingsPercent(vminPoint(), nominal), 11.0, 1.5);
    EXPECT_NEAR(model.savingsPercent(vmin900Point(), nominal), 48.1,
                2.0);
}

TEST(PowerModel, VoltageQuadraticDynamic)
{
    PowerModel model;
    OperatingPoint point = nominalPoint();
    const PowerBreakdown base = model.breakdown(point);
    point.pmdMillivolts = 490.0;  // half voltage
    const PowerBreakdown half = model.breakdown(point);
    EXPECT_NEAR(half.pmdDynamic, base.pmdDynamic / 4.0,
                0.01 * base.pmdDynamic);
}

TEST(PowerModel, ActivityScalesPmdOnly)
{
    PowerModel model;
    const PowerBreakdown calm = model.breakdown(nominalPoint(), 0.5);
    const PowerBreakdown busy = model.breakdown(nominalPoint(), 1.0);
    EXPECT_NEAR(busy.pmdDynamic, 2.0 * calm.pmdDynamic, 1e-9);
    EXPECT_DOUBLE_EQ(busy.socDynamic, calm.socDynamic);
    EXPECT_DOUBLE_EQ(busy.pmdLeakage, calm.pmdLeakage);
}

TEST(PowerModel, BreakdownSumsToTotal)
{
    PowerModel model;
    const PowerBreakdown breakdown = model.breakdown(vminPoint());
    EXPECT_NEAR(breakdown.total(), model.totalWatts(vminPoint()), 1e-12);
}

TEST(PowerModel, LeakageGrowsWithTemperature)
{
    PowerModelConfig hot_config;
    hot_config.temperatureCelsius = 85.0;
    PowerModel hot(hot_config);
    PowerModel nominal;
    const PowerBreakdown cool = nominal.breakdown(nominalPoint());
    const PowerBreakdown warm = hot.breakdown(nominalPoint());
    EXPECT_GT(warm.pmdLeakage, 2.0 * cool.pmdLeakage);
    EXPECT_DOUBLE_EQ(warm.pmdDynamic, cool.pmdDynamic);
}

} // namespace
} // namespace xser::volt
