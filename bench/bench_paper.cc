/**
 * @file
 * Reproduces the paper from one campaign run: Table 1, Fig. 4,
 * Tables 2-3, Figs. 5-13, the raw-SER baseline and the nine-Observation
 * scorecard, in paper order, each followed by the paper's own numbers.
 *
 * The four Table 2 sessions run once, on the worker pool. The 2.4 GHz
 * figures read sessions 0-2 and the 900 MHz ones session 3, the slicing
 * core::formatCampaignReport uses. Sessions are independent under the
 * determinism contract (fresh platform, seed derived from the session
 * index), so each figure equals a run of only its own sessions.
 *
 * Exit status is 0 whatever the Observation verdicts.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/campaign_report.hh"
#include "core/fit_calculator.hh"
#include "core/observations.hh"
#include "core/table_printer.hh"
#include "cpu/xgene2_platform.hh"
#include "rad/raw_ser_extrapolation.hh"
#include "volt/vmin_characterizer.hh"

namespace {

using namespace xser;

/** Title line of one paper artifact. */
void
section(const char *title)
{
    std::printf("=== %s ===\n\n", title);
}

/** One paper artifact: title, measured table, the paper's values. */
void
artifact(const char *title, const std::string &measured, const char *reference)
{
    section(title);
    std::printf("%s\n--- paper reference ---\n%s\n", measured.c_str(),
                reference);
}

/** Table 1 and the SRAM footprint the campaign irradiates. */
void
printTable1(cpu::XGene2Platform &platform)
{
    section("Table 1: X-Gene 2 specification");
    std::printf("%s\n", platform.specTable().c_str());

    std::printf("SRAM beam footprint:\n");
    uint64_t total = 0;
    for (const auto &target : platform.memory().beamTargets()) {
        total += target.array->totalBits();
        std::printf("  %-10s %10llu bits  (%s domain, %s)\n",
                    target.array->name().c_str(),
                    static_cast<unsigned long long>(
                        target.array->totalBits()),
                    target.pmdDomain ? "PMD" : "SoC",
                    mem::protectionName(target.array->protection()));
    }
    std::printf("  total      %10llu bits (%.2f MB incl. check bits)\n\n",
                static_cast<unsigned long long>(total),
                static_cast<double>(total) / 8.0 / 1024.0 / 1024.0);
}

/** Fig. 4: the offline safe-Vmin sweeps at both frequencies. */
void
printFig4(const cpu::XGene2Platform &platform)
{
    volt::VminCharacterizer characterizer(platform.timing(),
                                          platform.variation());

    volt::VminSweepConfig sweep24;
    sweep24.frequencyHz = 2.4e9;
    sweep24.startMillivolts = 935.0;
    sweep24.stopMillivolts = 890.0;
    sweep24.runsPerStep = 600;

    volt::VminSweepConfig sweep900;
    sweep900.frequencyHz = 0.9e9;
    sweep900.startMillivolts = 800.0;
    sweep900.stopMillivolts = 760.0;
    sweep900.runsPerStep = 600;

    const auto result24 = characterizer.sweep(sweep24);
    const auto result900 = characterizer.sweep(sweep900);
    artifact("Fig. 4: Probability of Failure vs voltage",
             core::formatFig4(result24, result900),
             "2.4 GHz : pfail 0% at/above 920 mV, rising below, 100% at "
             "900 mV (safe Vmin = 920 mV)\n"
             "900 MHz : pfail 0% at/above 790 mV, 100% at 780 mV "
             "(safe Vmin = 790 mV; window ~2x narrower)\n");
}

/**
 * Seifert-style raw-SER extrapolation ([66],[67] -- the state of the
 * art the paper goes beyond) against the 2.4 GHz sessions. The
 * extrapolation predicts the SRAM SER correctly but, by construction,
 * cannot see the system-level SDC explosion.
 */
void
printBaseline(cpu::XGene2Platform &platform,
              const std::vector<core::SessionResult> &sessions)
{
    section("Baseline: raw-SER extrapolation vs full system");

    // The baseline: measure nothing but nominal SRAM SER, extrapolate
    // through the Qcrit model.
    rad::CrossSectionModel xsection;
    rad::RawSerExtrapolation baseline(
        &xsection, rad::inventoryFrom(platform.memory().beamTargets()));
    const auto predictions = baseline.predict(
        {{0.980, 0.950}, {0.930, 0.925}, {0.920, 0.920}});

    core::TablePrinter table(
        {"setting", "raw-SER ratio (baseline)",
         "upsets/min ratio (measured)", "SDC FIT ratio (measured)",
         "total FIT ratio (measured)"});
    const core::FitBreakdown nominal_fit =
        core::FitCalculator::breakdown(sessions.front());
    for (size_t i = 0; i < sessions.size(); ++i) {
        const core::FitBreakdown fit =
            core::FitCalculator::breakdown(sessions[i]);
        const double upset_ratio =
            sessions.front().upsetsPerMinute() > 0.0
                ? sessions[i].upsetsPerMinute() /
                      sessions.front().upsetsPerMinute()
                : 0.0;
        table.addRow(
            {sessions[i].point.label(),
             core::TablePrinter::fmt(predictions[i].ratioToNominal, 2) +
                 "x",
             core::TablePrinter::fmt(upset_ratio, 2) + "x",
             core::TablePrinter::fmt(
                 nominal_fit.sdc.fit > 0.0
                     ? fit.sdc.fit / nominal_fit.sdc.fit : 0.0,
                 2) + "x",
             core::TablePrinter::fmt(
                 nominal_fit.total.fit > 0.0
                     ? fit.total.fit / nominal_fit.total.fit : 0.0,
                 2) + "x"});
    }
    std::printf("%s\n", table.toString().c_str());
    std::printf(
        "expected shape: the baseline's raw-SER ratio (1.0 -> ~1.15x at\n"
        "Vmin) tracks the measured cache upset rate -- the quantity\n"
        "[66,67] were built to predict -- but misses the system-level\n"
        "SDC blow-up (~16x) entirely: the corruption comes from\n"
        "unprotected core logic coupling to the timing cliff, which no\n"
        "SRAM-only extrapolation can see. This is the gap the paper's\n"
        "full-stack beam methodology exposes (Sections 1, 6).\n\n");
}

/** Each of the paper's nine Observations evaluated automatically. */
void
printScorecard(const core::CampaignResult &campaign)
{
    section("Scorecard: the paper's nine Observations");
    core::ObservationChecker checker(campaign);
    const auto verdicts = checker.evaluate();
    std::printf("%s\n", core::ObservationChecker::format(verdicts)
                            .c_str());
    std::printf("%zu / %zu observations hold at this session scale "
                "(small scales widen the Poisson noise on the\n"
                "low-count categories; XSER_FULL=1 evaluates at paper "
                "statistics).\n",
                core::ObservationChecker::countHolding(verdicts),
                verdicts.size());
}

} // namespace

int
main()
{
    bench::banner("The paper: Tables 1-3, Figs. 4-13, baseline, scorecard",
                  bench::campaignScaleFromEnv(bench::defaultScale));

    cpu::XGene2Platform platform;
    printTable1(platform);
    printFig4(platform);

    const core::CampaignResult campaign{bench::runPaperSessions()};
    const std::vector<core::SessionResult> &sessions = campaign.sessions;
    const std::vector<core::SessionResult> at24ghz(sessions.begin(),
                                                   sessions.begin() + 3);
    const core::SessionResult &at900mhz = sessions[3];

    artifact("Table 2: Neutron Beam Time Sessions",
             core::formatTable2(sessions) + "\n" + core::formatTable3(),
             "session (PMD mV)      :   980      930      920      790\n"
             "duration (min)        :  1651     1618      453      165\n"
             "fluence (n/cm2)       : 1.49e11  1.46e11  4.08e10  1.48e10\n"
             "NYC-equivalent years  : 1.30e6   1.28e6   3.58e5   1.30e5\n"
             "SDCs and crashes (#)  :    95       97      141       13\n"
             "errors rate (/min)    : 5.75e-2  5.99e-2  3.11e-1  7.87e-2\n"
             "memory upsets (#)     :  1669     1743      506      195\n"
             "upsets rate (/min)    : 1.011    1.077    1.117    1.182\n"
             "memory SER (FIT/Mbit) : 2.08     2.22     2.30     2.45\n");
    artifact("Fig. 5: upsets/min per benchmark (2.4 GHz)",
             core::formatFig5(at24ghz),
             "            980mV  930mV  920mV\n"
             "   CG     :  0.87   0.84   0.58\n"
             "   LU     :  1.15   1.09   1.03\n"
             "   FT     :  1.11   1.21   1.37\n"
             "   EP     :  1.03   1.22   1.17\n"
             "   MG     :  0.94   1.02   1.32\n"
             "   IS     :  1.03   1.11   1.28\n"
             "   Total  :  1.01   1.08   1.12\n"
             "shape: totals rise as voltage drops; per-benchmark values\n"
             "scatter +/-20% around the total (statistical noise).\n");
    artifact("Fig. 6: upsets/min per cache level (2.4 GHz)",
             core::formatFig6(at24ghz),
             "                      980mV  930mV  920mV\n"
             "TLBs      (corr)   :  0.016  0.011  0.009\n"
             "L1 Cache  (corr)   :  0.028  0.037  0.026\n"
             "L2 Cache  (corr)   :  0.157  0.178  0.194\n"
             "L3 Cache  (corr)   :  0.765  0.809  0.841\n"
             "L3 Cache  (uncorr) :  0.038  0.041  0.035\n"
             "shape: rate grows with array size (L3 >> L2 >> L1 > TLB);\n"
             "uncorrected events appear only in the non-interleaved L3.\n");
    artifact("Fig. 7: upsets/min per cache level (900 MHz)",
             core::formatFig7(at900mhz),
             "TLB (corr) 0.03 | L1 (corr) 0.07 | L2 (corr) 0.29 |\n"
             "L3 (corr) 0.83 | L3 (uncorr) 0.04\n"
             "shape: PMD arrays (TLB/L1/L2) rise strongly vs 920 mV@2.4GHz\n"
             "(L1 ~2.7x, L2 ~1.5x) because only the PMD domain is at\n"
             "790 mV; the SoC-domain L3 stays near its 2.4 GHz level.\n");
    artifact("Fig. 8: failure-type breakdown (2.4 GHz)",
             core::formatFig8(at24ghz),
             "980 mV: AppCrash 17.9% | SysCrash 51.6% | SDC 30.5%\n"
             "930 mV: AppCrash  7.2% | SysCrash 37.1% | SDC 55.7%\n"
             "920 mV: AppCrash  2.1% | SysCrash  5.7% | SDC 92.2%\n"
             "shape: SDC share explodes toward Vmin; crash shares collapse\n"
             "(Observation #4: 3x higher SDC probability at low voltage).\n");
    artifact("Fig. 9: power vs soft-error susceptibility",
             core::formatFig9(sessions),
             "980mV@2.4GHz: 20.40 W, 1.01 upsets/min\n"
             "930mV@2.4GHz: 18.63 W, 1.08 upsets/min\n"
             "920mV@2.4GHz: 18.15 W, 1.12 upsets/min\n"
             "790mV@900MHz: 10.59 W, 1.18 upsets/min\n"
             "shape: power falls with voltage (and frequency) while the\n"
             "upset rate rises near-linearly with voltage reduction only\n"
             "(Observation #6: frequency does not matter).\n");
    artifact("Fig. 10: power savings vs susceptibility increase",
             core::formatFig10(sessions),
             "930mV@2.4GHz: savings  8.7% | susceptibility + 6.9%\n"
             "920mV@2.4GHz: savings 11.0% | susceptibility +10.9%\n"
             "790mV@900MHz: savings 48.1% | susceptibility +16.8%\n"
             "shape: at 2.4 GHz susceptibility grows faster than savings;\n"
             "the 900 MHz point wins on savings only by giving up\n"
             "performance (Observation #7).\n");
    artifact("Fig. 11: FIT rates per category (2.4 GHz)",
             core::formatFig11(at24ghz),
             "            980mV  930mV  920mV\n"
             "AppCrash :   1.49   0.62   0.96\n"
             "SysCrash :   4.29   3.21   2.55\n"
             "SDC      :   2.54   4.82  41.43\n"
             "Total    :   8.31   8.66  ~44.9 (from the published counts;\n"
             "the Section 6.1 text quotes 54.83 -- see EXPERIMENTS.md)\n"
             "shape: SDC FIT ~16x nominal at Vmin; total ~6x; crash FITs\n"
             "drift down (low-count noise per the paper itself).\n");
    artifact("Fig. 12: SDC FIT by notification class (2.4 GHz)",
             core::formatFig12(at24ghz),
             "                 980mV  930mV  920mV\n"
             "w/o notification: 1.84   3.84  39.2\n"
             "w/  notification: 0.70   0.98   2.23\n"
             "shape: both classes grow toward Vmin, but unnotified SDCs\n"
             "dominate and explode -- the corruption originates in\n"
             "unprotected core logic (Design Implication #4).\n");
    artifact("Fig. 13: SDC FIT by notification class (900 MHz)",
             core::formatFig13(at900mhz),
             "w/o notification: 4.39 FIT | w/ notification: 0.88 FIT\n"
             "shape: same asymmetry as at 2.4 GHz, at a level far below\n"
             "the 920 mV session despite the much lower voltage --\n"
             "frequency decouples the logic susceptibility.\n");

    printBaseline(platform, at24ghz);
    printScorecard(campaign);
    return 0;
}
