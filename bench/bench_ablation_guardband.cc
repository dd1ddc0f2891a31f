/**
 * @file
 * Ablation: the full guardband ladder. Sweeps the PMD supply in 10 mV
 * steps from nominal down to Vmin at 2.4 GHz and reports power, upset
 * rate, and the FIT breakdown -- making Design Implication #2 ("run
 * 10 mV above Vmin") quantitative at every step, not just the paper's
 * three measured points.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_common.hh"
#include "core/fit_calculator.hh"
#include "core/table_printer.hh"

int
main()
{
    using namespace xser;

    const double scale = bench::campaignScaleFromEnv(bench::defaultScale);
    bench::banner("Ablation: guardband ladder (2.4 GHz)", scale);

    core::CampaignConfig ladder;
    for (double pmd = 980.0; pmd >= 920.0 - 0.5; pmd -= 10.0) {
        // The SoC domain tracks the PMD reduction as in Table 3
        // (950 -> 925 -> 920), floored at 920 mV.
        const double soc = std::max(920.0, 950.0 - (980.0 - pmd) / 2.0);
        core::SessionConfig config;
        config.point = {"ladder", pmd, 5.0 * std::round(soc / 5.0), 2.4e9};
        config.maxErrorEvents = core::scaledEventTarget(80, scale);
        config.maxFluence = 6e10 * scale;
        config.seed = 0x9aadba9dULL + static_cast<uint64_t>(pmd);
        ladder.sessions.push_back(config);
    }

    core::TablePrinter table({"PMD (mV)", "SoC (mV)", "power (W)",
                              "upsets/min", "SDC FIT", "total FIT"});
    for (const core::SessionResult &result : bench::runCampaign(ladder)) {
        const core::FitBreakdown fit =
            core::FitCalculator::breakdown(result);
        table.addRow({core::TablePrinter::fmt(result.point.pmdMillivolts, 0),
                      core::TablePrinter::fmt(result.point.socMillivolts, 0),
                      core::TablePrinter::fmt(result.avgPowerWatts, 2),
                      core::TablePrinter::fmt(result.upsetsPerMinute(),
                                              2),
                      core::TablePrinter::fmt(fit.sdc.fit, 2),
                      core::TablePrinter::fmt(fit.total.fit, 2)});
    }
    std::printf("%s\n", table.toString().c_str());
    std::printf(
        "expected shape: power falls steadily with each step, upset\n"
        "rates creep up, and the SDC/total FIT stays near-flat until\n"
        "the last ~10 mV above the cliff, where it explodes --\n"
        "quantifying Design Implication #2's 'operate slightly above\n"
        "the lowest safe Vmin' (930 mV beats 920 mV by >5x FIT for\n"
        "only ~2 %% extra power).\n");
    return 0;
}
