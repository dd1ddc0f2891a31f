/**
 * @file
 * Tests for the energy-vs-reliability analyzer: Young-interval math,
 * ladder monotonicities, the SDC-budget policy, and the AVF estimator
 * extension (Design Implication #3).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/tradeoff.hh"
#include "inject/avf_estimator.hh"
#include "inject/fault_injector.hh"
#include "sim/golden_image.hh"
#include "volt/timing_model.hh"
#include "workloads/workload.hh"

namespace xser::core {
namespace {

struct Models {
    volt::PowerModel power;
    volt::TimingModel timing;
    LogicSusceptibilityModel logic{&timing};
};

TEST(Tradeoff, EvaluateNominalBasics)
{
    Models models;
    TradeoffConfig config;
    config.devices = 50000.0;
    EnergyReliabilityAnalyzer analyzer(&models.power, &models.logic,
                                       config);
    const TradeoffPoint point = analyzer.evaluate(volt::nominalPoint());

    EXPECT_NEAR(point.powerWatts, 20.40, 0.2);
    // Crash FIT at nominal ~ 5.8 (1.49 + 4.29 from Fig. 11).
    EXPECT_NEAR(point.crashFit, 5.8, 1.0);
    // Fleet MTBF = 1e9 / (FIT * devices) hours.
    EXPECT_NEAR(point.fleetCrashMtbfHours,
                1e9 / (point.crashFit * 50000.0), 1.0);
    // Young's interval: tau = sqrt(2 * delta * MTBF).
    const double delta_hours = 30.0 / 3600.0;
    EXPECT_NEAR(point.optimalCheckpointHours,
                std::sqrt(2.0 * delta_hours * point.fleetCrashMtbfHours),
                1e-9);
    EXPECT_GT(point.wasteFraction, 0.0);
    EXPECT_LT(point.wasteFraction, 0.05);
    EXPECT_GT(point.usefulWorkPerJoule, 0.0);
    EXPECT_GT(point.energyPerYearMwh, 8000.0);  // ~20W * 50k * 8760h
    EXPECT_LT(point.energyPerYearMwh, 10000.0);
}

TEST(Tradeoff, SdcIncidentsExplodeAtVmin)
{
    Models models;
    TradeoffConfig config;
    config.devices = 50000.0;
    EnergyReliabilityAnalyzer analyzer(&models.power, &models.logic,
                                       config);
    const TradeoffPoint nominal = analyzer.evaluate(volt::nominalPoint());
    const TradeoffPoint vmin = analyzer.evaluate(volt::vminPoint());
    EXPECT_GT(vmin.sdcIncidentsPerYear,
              10.0 * nominal.sdcIncidentsPerYear);
    EXPECT_LT(vmin.powerWatts, nominal.powerWatts);
}

TEST(Tradeoff, LadderMonotonicities)
{
    Models models;
    EnergyReliabilityAnalyzer analyzer(&models.power, &models.logic);
    const std::vector<TradeoffPoint> ladder = analyzer.ladder(920.0);
    ASSERT_EQ(ladder.size(), 7u);  // 980..920 in 10 mV steps
    for (size_t i = 1; i < ladder.size(); ++i) {
        // Power decreases monotonically down the ladder.
        EXPECT_LT(ladder[i].powerWatts, ladder[i - 1].powerWatts);
        // SDC incidents never decrease.
        EXPECT_GE(ladder[i].sdcIncidentsPerYear,
                  ladder[i - 1].sdcIncidentsPerYear * 0.999);
    }
    // The explosion is concentrated in the last step (Design
    // Implication #2).
    const double last_step_ratio =
        ladder[6].sdcIncidentsPerYear / ladder[5].sdcIncidentsPerYear;
    const double mid_step_ratio =
        ladder[3].sdcIncidentsPerYear / ladder[2].sdcIncidentsPerYear;
    EXPECT_GT(last_step_ratio, 3.0);
    EXPECT_LT(mid_step_ratio, 2.0);
}

TEST(Tradeoff, BudgetPolicyPicksSweetSpot)
{
    Models models;
    TradeoffConfig config;
    config.devices = 50000.0;
    EnergyReliabilityAnalyzer analyzer(&models.power, &models.logic,
                                       config);

    // A tight SDC budget keeps the policy off the cliff edge.
    const TradeoffPoint nominal = analyzer.evaluate(volt::nominalPoint());
    const TradeoffPoint tight = analyzer.bestUnderSdcBudget(
        3.0 * nominal.sdcIncidentsPerYear);
    EXPECT_GT(tight.point.pmdMillivolts, 920.0);
    EXPECT_LT(tight.point.pmdMillivolts, 980.0);
    EXPECT_GT(tight.usefulWorkPerJoule, nominal.usefulWorkPerJoule);

    // An unbounded budget lets it ride to the lowest setting.
    const TradeoffPoint loose = analyzer.bestUnderSdcBudget(1e18);
    EXPECT_EQ(loose.point.pmdMillivolts, 920.0);

    // An impossible budget falls back to nominal.
    const TradeoffPoint impossible = analyzer.bestUnderSdcBudget(0.0);
    EXPECT_EQ(impossible.point.pmdMillivolts, 980.0);
}

TEST(Tradeoff, HigherFluxShortensCheckpointInterval)
{
    Models models;
    TradeoffConfig sea;
    sea.devices = 1e5;
    TradeoffConfig mountain = sea;
    mountain.environment = rad::atAltitude(3600.0);
    EnergyReliabilityAnalyzer at_sea(&models.power, &models.logic, sea);
    EnergyReliabilityAnalyzer at_altitude(&models.power, &models.logic,
                                          mountain);
    const TradeoffPoint low = at_sea.evaluate(volt::nominalPoint());
    const TradeoffPoint high =
        at_altitude.evaluate(volt::nominalPoint());
    EXPECT_LT(high.fleetCrashMtbfHours, low.fleetCrashMtbfHours);
    EXPECT_LT(high.optimalCheckpointHours, low.optimalCheckpointHours);
    EXPECT_GT(high.sdcIncidentsPerYear, low.sdcIncidentsPerYear * 5.0);
}

TEST(Tradeoff, UtilizationScalesExposure)
{
    Models models;
    TradeoffConfig full;
    full.devices = 1e4;
    TradeoffConfig half = full;
    half.utilization = 0.5;
    EnergyReliabilityAnalyzer busy(&models.power, &models.logic, full);
    EnergyReliabilityAnalyzer idle(&models.power, &models.logic, half);
    const TradeoffPoint a = busy.evaluate(volt::nominalPoint());
    const TradeoffPoint b = idle.evaluate(volt::nominalPoint());
    EXPECT_NEAR(b.sdcIncidentsPerYear, a.sdcIncidentsPerYear / 2.0,
                1e-9);
    EXPECT_NEAR(b.energyPerYearMwh, a.energyPerYearMwh / 2.0, 1e-9);
}

TEST(Tradeoff, LadderSocTracksTable3)
{
    Models models;
    EnergyReliabilityAnalyzer analyzer(&models.power, &models.logic);
    const auto ladder = analyzer.ladder(920.0);
    // Table 3 tracking: SoC = 950 - (980 - PMD)/2, floored at 920.
    EXPECT_EQ(ladder.front().point.socMillivolts, 950.0);
    EXPECT_EQ(ladder.back().point.socMillivolts, 920.0);
    for (const auto &point : ladder) {
        EXPECT_GE(point.point.socMillivolts, 920.0);
        EXPECT_LE(point.point.socMillivolts, 950.0);
    }
}

/* --------------------------- AvfEstimator ------------------------ */

TEST(AvfEstimator, SecdedLevelsHaveNearZeroSingleFlipAvf)
{
    // Single flips in SECDED arrays are always corrected; with modest
    // flip counts per trial almost every trial must stay clean.
    inject::AvfConfig config;
    config.trials = 10;
    config.flipsPerTrial = 16;
    config.workloadName = "EP";
    inject::AvfEstimator estimator(config);
    const inject::AvfResult l3 =
        estimator.estimate(mem::CacheLevel::L3);
    EXPECT_EQ(l3.trials, 10u);
    EXPECT_LE(l3.corruptedTrials, 1u);
    EXPECT_LT(l3.avf, 0.01);
}

TEST(AvfEstimator, ProjectFitScalesWithAvfAndVoltage)
{
    inject::AvfConfig config;
    config.trials = 2;
    config.flipsPerTrial = 4;
    inject::AvfEstimator estimator(config);
    rad::CrossSectionModel xsection;

    inject::AvfResult synthetic;
    synthetic.level = mem::CacheLevel::L2;
    synthetic.avf = 1e-3;
    const double fit_nominal =
        estimator.projectFit(synthetic, xsection, 0.980);
    const double fit_low =
        estimator.projectFit(synthetic, xsection, 0.790);
    EXPECT_GT(fit_nominal, 0.0);
    EXPECT_GT(fit_low, fit_nominal * 1.3);

    synthetic.avf = 2e-3;
    EXPECT_NEAR(estimator.projectFit(synthetic, xsection, 0.980),
                2.0 * fit_nominal, 1e-9);
}

TEST(AvfEstimator, BurstModeDefeatsSecdedInL3)
{
    // Single flips: zero AVF everywhere (Design Implication #1).
    // Size-3 bursts: the non-interleaved L3 shows a real AVF while
    // the refetchable parity arrays stay clean.
    inject::AvfConfig config;
    config.trials = 8;
    config.flipsPerTrial = 24;
    config.burstSize = 3;
    config.seed = 0xb0057ULL;
    inject::AvfEstimator estimator(config);
    const inject::AvfResult l3 =
        estimator.estimate(mem::CacheLevel::L3);
    EXPECT_GT(l3.corruptedTrials, 0u);
    EXPECT_GT(l3.avf, 0.0);
}

TEST(AvfEstimator, InversionMath)
{
    // a = 1 - (1 - p)^(1/k), the function estimate() reports.
    // p = 50/100, k = 8: a = 1 - 0.5^(1/8) = 0.0829960.
    EXPECT_NEAR(inject::perFlipAvf(50, 100, 8), 0.0829960, 1e-7);
    EXPECT_EQ(inject::perFlipAvf(0, 10, 4), 0.0);
    // Saturated: p = 1 has no finite inversion, so the Jeffreys bound
    // p = 1 - 0.5 / trials stands in. 10/10, k = 4: p = 0.95 and
    // a = 1 - 0.05^(1/4) = 0.5271292; 20/20, k = 1: a = p = 0.975.
    EXPECT_NEAR(inject::perFlipAvf(10, 10, 4), 0.5271292, 1e-7);
    EXPECT_NEAR(inject::perFlipAvf(20, 20, 1), 0.975, 1e-12);
}

TEST(AvfEstimator, BenchmarkShapeResultsArePinned)
{
    // `xser avf --workload MG --trials 15 --flips 48 --burst 3 --seed
    // 7`, the e2ebench avf_inject shape. Each of the 12 corrupting L3
    // trials restores the golden state and bumps the count that later
    // trials mix into their seeds.
    inject::AvfConfig config;
    config.workloadName = "MG";
    config.trials = 15;
    config.flipsPerTrial = 48;
    config.burstSize = 3;
    config.seed = 7;
    inject::AvfEstimator estimator(config);
    std::vector<unsigned> corrupted;
    for (const auto level : {mem::CacheLevel::Tlb, mem::CacheLevel::L1,
                             mem::CacheLevel::L2, mem::CacheLevel::L3}) {
        const inject::AvfResult result = estimator.estimate(level);
        EXPECT_EQ(result.trials, 15u);
        corrupted.push_back(result.corruptedTrials);
    }
    EXPECT_EQ(corrupted, (std::vector<unsigned>{0, 0, 0, 12}));
}

/** One cache level's arrays. */
std::vector<mem::BeamTarget>
targetsAt(mem::MemorySystem &memory, mem::CacheLevel level)
{
    std::vector<mem::BeamTarget> targets;
    for (const auto &target : memory.beamTargets()) {
        if (target.level == level)
            targets.push_back(target);
    }
    return targets;
}

/** The bytes the visit() walk saves for a platform and its workload. */
std::string
savedState(cpu::XGene2Platform &platform, workloads::Workload &workload)
{
    const auto walk = [&](Archive &ar) {
        platform.visit(ar);
        workload.visit(ar, platform.memory());
    };
    return GoldenImage::capture(walk).bytes;
}

/** RebuildRestoresTheGoldenStateInPlace for one workload. */
void
expectRebuildRestoresInPlace(const std::string &name)
{
    // A from-scratch build: construct, set up, golden run.
    cpu::XGene2Platform fresh;
    const auto fresh_workload = workloads::makeWorkload(name);
    workloads::RunContext fresh_ctx(&fresh.memory(),
                                    workloads::RunContext::QuantumHook(),
                                    1u << 20);
    fresh_workload->setUp(fresh_ctx);
    fresh_workload->run(fresh_ctx);
    const std::string golden = savedState(fresh, *fresh_workload);

    inject::AvfConfig config;
    config.workloadName = name;
    inject::AvfEstimator estimator(config);
    cpu::XGene2Platform &platform = estimator.platform();
    mem::MemorySystem &memory = platform.memory();
    ASSERT_TRUE(savedState(platform, estimator.workload()) == golden);

    // What a corrupting trial leaves behind: single flips and double
    // bursts in L2 and L3, a dirty line on a DRAM page nothing touched
    // before, and a run that reads flips back (CE and UE events).
    for (const auto level : {mem::CacheLevel::L2, mem::CacheLevel::L3}) {
        inject::FaultInjector injector(targetsAt(memory, level), 0x5eedULL);
        for (int i = 0; i < 64; ++i) {
            injector.injectRandom();
            injector.injectRandomBurst(2);
        }
    }
    const mem::Addr stray = memory.allocate(8192, "stray") + 8192 - 8;
    memory.writeWord(0, stray, 0x5eedULL);
    workloads::RunContext ctx(&memory, workloads::RunContext::QuantumHook(),
                              1u << 20);
    estimator.workload().run(ctx);
    ASSERT_GT(platform.edac().totalCorrected(), 0u);
    ASSERT_GT(platform.edac().totalUncorrected(), 0u);
    ASSERT_FALSE(savedState(platform, estimator.workload()) == golden);

    estimator.rebuild();
    EXPECT_TRUE(savedState(platform, estimator.workload()) == golden);
    EXPECT_EQ(platform.edac().totalUpsets(), 0u);

    // State off the saved bytes (the residency filters, the EDAC
    // reporter) must match too: one more identical trial on both
    // leaves the same output, tallies and bytes.
    const auto trial = [](cpu::XGene2Platform &target,
                          workloads::Workload &workload) {
        inject::FaultInjector injector(
            targetsAt(target.memory(), mem::CacheLevel::L3), 0xb0057ULL);
        for (int i = 0; i < 64; ++i)
            injector.injectRandomBurst(2);
        workloads::RunContext trial_ctx(
            &target.memory(), workloads::RunContext::QuantumHook(), 1u << 20);
        return workload.run(trial_ctx).signature;
    };
    EXPECT_EQ(trial(platform, estimator.workload()),
              trial(fresh, *fresh_workload));
    EXPECT_EQ(platform.edac().totalCorrected(),
              fresh.edac().totalCorrected());
    EXPECT_EQ(platform.edac().totalUncorrected(),
              fresh.edac().totalUncorrected());
    EXPECT_TRUE(savedState(platform, estimator.workload()) ==
                savedState(fresh, *fresh_workload));
}

TEST(AvfEstimator, RebuildRestoresTheGoldenStateInPlace)
{
    for (const std::string &name : workloads::suiteNames()) {
        SCOPED_TRACE(name);
        expectRebuildRestoresInPlace(name);
    }
}

TEST(AvfEstimatorDeath, BurstOutsideOneToSixtyFourIsRefused)
{
    // 0 would silently run single flips; a burst past a stored word
    // would wrap and flip bits back.
    for (const unsigned burst : {0u, 65u, 144u}) {
        inject::AvfConfig config;
        config.burstSize = burst;
        EXPECT_EXIT(inject::AvfEstimator{config},
                    ::testing::ExitedWithCode(1),
                    "AVF burst size " + std::to_string(burst) +
                        " is outside \\[1, 64\\]");
    }
}

} // namespace
} // namespace xser::core
