/**
 * @file
 * Ablation: patrol-scrub pacing. Sweeps the L2 scrub pass period (and
 * an L3-scrub-on variant) at nominal voltage and reports how detected
 * upset rates respond -- the knob behind the raw-vs-detected gap of
 * Section 3.5.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/table_printer.hh"
#include "volt/operating_point.hh"

int
main()
{
    using namespace xser;

    const double scale = bench::campaignScaleFromEnv(bench::defaultScale);
    bench::banner("Ablation: patrol-scrub pacing (980 mV @ 2.4 GHz)", scale);

    struct Variant {
        std::string label;
        bool l2_enabled;
        Tick l2_period;
        bool l3_enabled;
    };
    const auto micros = [](double us) {
        return ticks::fromSeconds(us * 1e-6);
    };
    // The deployed pacing: what every campaign session runs.
    const Tick deployed = core::SessionConfig().scrub.l2PassPeriod;
    const std::string deployed_label =
        "L2 @ " + std::to_string(deployed / ticks::perMicrosecond) +
        " us/pass (default)";
    const Variant variants[] = {
        {"no scrub", false, micros(250.0), false},
        {"L2 @ 1000 us/pass", true, micros(1000.0), false},
        {deployed_label, true, deployed, false},
        {"L2 @ 60 us/pass", true, micros(60.0), false},
        {"L2 @ 250 us + L3 @ 2 ms", true, micros(250.0), true},
    };

    core::CampaignConfig sweep;
    for (const Variant &variant : variants) {
        core::SessionConfig config;
        config.point = volt::nominalPoint();
        config.maxErrorEvents = core::scaledEventTarget(100, scale);
        config.maxFluence = 1.49e11 * scale;
        config.seed = 0x5c20bULL;
        config.scrub.enabled = variant.l2_enabled || variant.l3_enabled;
        config.scrub.l2Enabled = variant.l2_enabled;
        config.scrub.l3Enabled = variant.l3_enabled;
        config.scrub.l2PassPeriod = variant.l2_period;
        config.scrub.l3PassPeriod = ticks::fromSeconds(2e-3);
        sweep.sessions.push_back(config);
    }
    const std::vector<core::SessionResult> results = bench::runCampaign(sweep);

    core::TablePrinter table({"variant", "TLB/min", "L1/min", "L2/min",
                              "L3/min", "total/min"});
    for (size_t i = 0; i < results.size(); ++i) {
        const core::SessionResult &result = results[i];
        const double minutes = result.equivalentMinutes();
        auto rate = [&](mem::CacheLevel level) {
            const auto &tally =
                result.edac[static_cast<size_t>(level)];
            return minutes > 0.0
                ? static_cast<double>(tally.corrected +
                                      tally.uncorrected) / minutes
                : 0.0;
        };
        table.addRow({variants[i].label,
                      core::TablePrinter::fmt(rate(mem::CacheLevel::Tlb),
                                              3),
                      core::TablePrinter::fmt(rate(mem::CacheLevel::L1),
                                              3),
                      core::TablePrinter::fmt(rate(mem::CacheLevel::L2),
                                              3),
                      core::TablePrinter::fmt(rate(mem::CacheLevel::L3),
                                              3),
                      core::TablePrinter::fmt(result.upsetsPerMinute(),
                                              2)});
    }
    std::printf("%s\n", table.toString().c_str());
    std::printf(
        "expected shape: faster L2 scrub -> higher detected L2 rate\n"
        "(raw upsets are unchanged; only visibility moves). Adding L3\n"
        "scrub lifts the L3 rate above the paper's 0.77/min, showing\n"
        "why the deployed configuration detects on demand instead.\n");
    return 0;
}
