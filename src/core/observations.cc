/**
 * @file
 * ObservationChecker implementation.
 */

#include "core/observations.hh"

#include <algorithm>
#include <cmath>

#include "core/fit_calculator.hh"
#include "core/table_printer.hh"
#include "sim/logging.hh"

namespace xser::core {

namespace {

/** SDC share of a session's error events (0 when eventless). */
double
sdcShare(const SessionResult &session)
{
    const uint64_t total = session.events.total();
    return total > 0
        ? static_cast<double>(session.events.sdcTotal()) /
              static_cast<double>(total)
        : 0.0;
}

/** Corrected-event count of one level. */
uint64_t
correctedAt(const SessionResult &session, mem::CacheLevel level)
{
    return session.edac[static_cast<size_t>(level)].corrected;
}

/**
 * numerator / denominator, where the denominator rests on an event
 * count. A zero count leaves no ratio to judge: `zeroSide` then names
 * the empty side ("no SDCs at 980mV") for the measurement, and a check
 * that needs the ratio does not hold.
 */
struct CountRatio {
    double value = 0.0;
    std::string zeroSide;

    CountRatio(double numerator, double denominator, uint64_t count,
               std::string zero_side)
    {
        if (count == 0 || denominator <= 0.0)
            zeroSide = std::move(zero_side);
        else
            value = numerator / denominator;
    }

    bool exists() const { return zeroSide.empty(); }

    /** The formatted ratio between `before` and `after`, or zeroSide. */
    std::string
    text(const char *before, int digits, const char *after) const
    {
        return exists()
            ? msg(before, TablePrinter::fmt(value, digits), after)
            : zeroSide;
    }
};

} // namespace

ObservationChecker::ObservationChecker(const CampaignResult &campaign)
    : sessions_(campaign.sessions)
{
    if (sessions_.size() != 4)
        fatal("observation checker needs the four Table 2 sessions");
    XSER_ASSERT(sessions_[0].point.pmdMillivolts == 980.0 &&
                    sessions_[3].point.frequencyHz < 1e9,
                "sessions must be in Table 2 order");
}

std::vector<ObservationVerdict>
ObservationChecker::evaluate() const
{
    std::vector<ObservationVerdict> verdicts;
    const double rate_nominal = nominal().upsetsPerMinute();
    const double rate_vmin = vmin().upsetsPerMinute();
    const double rate_low = low900().upsetsPerMinute();

    {
        // #1: upset rate rises when reducing to the safe Vmin
        // (paper: +10.9% on average).
        ObservationVerdict verdict;
        verdict.number = 1;
        verdict.claim = "SRAM upset rate increases toward safe Vmin";
        const CountRatio increase(100.0 * (rate_vmin - rate_nominal),
                                  rate_nominal, nominal().upsetsDetected,
                                  "no upsets at 980mV");
        verdict.measurement = msg(TablePrinter::fmt(rate_nominal, 2),
                                  " -> ", TablePrinter::fmt(rate_vmin, 2),
                                  " upsets/min (",
                                  increase.text("", 1, "%"), ")");
        verdict.holds = increase.exists() && increase.value > 0.0 &&
                        increase.value < 60.0;
        verdicts.push_back(verdict);
    }
    {
        // #2: bigger arrays log more upsets, at every voltage.
        ObservationVerdict verdict;
        verdict.number = 2;
        verdict.claim = "upset rate grows with array size (L3>L2>L1)";
        bool holds = true;
        for (const auto &session : sessions_) {
            holds &= correctedAt(session, mem::CacheLevel::L3) >
                     correctedAt(session, mem::CacheLevel::L2);
            holds &= correctedAt(session, mem::CacheLevel::L2) >
                     correctedAt(session, mem::CacheLevel::L1);
        }
        verdict.measurement = msg(
            "L3/L2/L1 CE @980mV: ",
            correctedAt(nominal(), mem::CacheLevel::L3), "/",
            correctedAt(nominal(), mem::CacheLevel::L2), "/",
            correctedAt(nominal(), mem::CacheLevel::L1));
        verdict.holds = holds;
        verdicts.push_back(verdict);
    }
    {
        // #3: no extreme fluctuations at lower voltage (2.4 GHz).
        ObservationVerdict verdict;
        verdict.number = 3;
        verdict.claim = "upset rates stay stable across safe voltages";
        const double lo = std::min({nominal().upsetsPerMinute(),
                                    safe().upsetsPerMinute(),
                                    rate_vmin});
        const double hi = std::max({nominal().upsetsPerMinute(),
                                    safe().upsetsPerMinute(),
                                    rate_vmin});
        verdict.measurement =
            msg("2.4GHz range [", TablePrinter::fmt(lo, 2), ", ",
                TablePrinter::fmt(hi, 2), "] upsets/min");
        verdict.holds = lo > 0.0 && hi / lo < 1.6;
        verdicts.push_back(verdict);
    }
    {
        // #4: SDC probability ~3x larger at low voltage.
        ObservationVerdict verdict;
        verdict.number = 4;
        verdict.claim = "SDC share of failures ~3x at Vmin";
        const CountRatio ratio(sdcShare(vmin()), sdcShare(nominal()),
                               nominal().events.sdcTotal(),
                               "no SDCs at 980mV");
        verdict.measurement =
            msg(TablePrinter::pct(sdcShare(nominal())), " -> ",
                TablePrinter::pct(sdcShare(vmin())), " (",
                ratio.text("", 1, "x"), ")");
        verdict.holds = ratio.exists() && ratio.value >= 1.8;
        verdicts.push_back(verdict);
    }
    {
        // #5: power drops substantially, susceptibility rises.
        ObservationVerdict verdict;
        verdict.number = 5;
        verdict.claim = "undervolting saves power but raises "
                        "susceptibility";
        const double savings =
            100.0 * (nominal().avgPowerWatts - vmin().avgPowerWatts) /
            nominal().avgPowerWatts;
        const CountRatio rise(rate_vmin, rate_nominal,
                              nominal().upsetsDetected,
                              "no upsets at 980mV");
        verdict.measurement =
            msg(TablePrinter::fmt(savings, 1), "% power saved at Vmin; ",
                rise.text("upset rate x", 2, ""));
        verdict.holds = savings > 5.0 && rise.exists() &&
                        rate_vmin > rate_nominal;
        verdicts.push_back(verdict);
    }
    {
        // #6: frequency does not significantly affect susceptibility.
        ObservationVerdict verdict;
        verdict.number = 6;
        verdict.claim = "clock frequency barely moves the upset rate";
        const CountRatio ratio(rate_low, rate_vmin,
                               vmin().upsetsDetected,
                               "no upsets at 920mV");
        verdict.measurement =
            msg("790mV@900MHz vs 920mV@2.4GHz: ",
                TablePrinter::fmt(rate_low, 2), " vs ",
                TablePrinter::fmt(rate_vmin, 2), " upsets/min (",
                ratio.text("x", 2, ""), ")");
        verdict.holds =
            ratio.exists() && ratio.value > 0.6 && ratio.value < 1.6;
        verdicts.push_back(verdict);
    }
    {
        // #7: at 2.4 GHz susceptibility keeps pace with savings; the
        // 900 MHz point wins on savings only by trading performance.
        ObservationVerdict verdict;
        verdict.number = 7;
        verdict.claim = "at 2.4 GHz susceptibility outpaces savings; "
                        "900 MHz saves more only via performance";
        const double savings_vmin =
            100.0 * (nominal().avgPowerWatts - vmin().avgPowerWatts) /
            nominal().avgPowerWatts;
        const CountRatio susceptibility_vmin(
            100.0 * (rate_vmin - rate_nominal), rate_nominal,
            nominal().upsetsDetected, "no upsets at 980mV");
        const double savings_low =
            100.0 * (nominal().avgPowerWatts - low900().avgPowerWatts) /
            nominal().avgPowerWatts;
        const CountRatio susceptibility_low(
            100.0 * (rate_low - rate_nominal), rate_nominal,
            nominal().upsetsDetected, "no upsets at 980mV");
        verdict.measurement = msg(
            "Vmin: save ", TablePrinter::fmt(savings_vmin, 1), "% / ",
            susceptibility_vmin.text("+", 1, "% susc"), "; ",
            "900MHz: save ", TablePrinter::fmt(savings_low, 1), "% / ",
            susceptibility_low.text("+", 1, "% susc"));
        verdict.holds =
            susceptibility_vmin.exists() && susceptibility_low.exists() &&
            susceptibility_vmin.value > 0.5 * savings_vmin &&
            savings_low > 1.5 * susceptibility_low.value;
        verdicts.push_back(verdict);
    }
    {
        // #8: total FIT rises toward Vmin; SDC dominates there.
        ObservationVerdict verdict;
        verdict.number = 8;
        verdict.claim = "total FIT several times nominal at Vmin, "
                        "dominated by SDCs";
        const FitBreakdown fit_nominal =
            FitCalculator::breakdown(nominal());
        const FitBreakdown fit_vmin = FitCalculator::breakdown(vmin());
        const CountRatio total_ratio(
            fit_vmin.total.fit, fit_nominal.total.fit,
            nominal().events.total(), "no errors at 980mV");
        const CountRatio sdc_vs_crash(
            fit_vmin.sdc.fit,
            fit_vmin.appCrash.fit + fit_vmin.sysCrash.fit,
            vmin().events.appCrash + vmin().events.sysCrash,
            "no crashes at 920mV");
        verdict.measurement =
            msg("total ", TablePrinter::fmt(fit_nominal.total.fit, 1),
                " -> ", TablePrinter::fmt(fit_vmin.total.fit, 1),
                " FIT (", total_ratio.text("x", 1, ""), "); ",
                sdc_vs_crash.text("SDC/crash x", 1, ""));
        verdict.holds = total_ratio.exists() && total_ratio.value > 3.0 &&
                        sdc_vs_crash.exists() && sdc_vs_crash.value > 3.0;
        verdicts.push_back(verdict);
    }
    {
        // #9: unnotified SDCs dominate notified ones everywhere.
        ObservationVerdict verdict;
        verdict.number = 9;
        verdict.claim = "SDCs without hardware notification dominate";
        bool holds = true;
        for (const auto &session : sessions_) {
            holds &= session.events.sdcSilent >=
                     session.events.sdcNotified;
        }
        verdict.measurement =
            msg("silent/notified per session: ",
                nominal().events.sdcSilent, "/",
                nominal().events.sdcNotified, ", ",
                safe().events.sdcSilent, "/",
                safe().events.sdcNotified, ", ",
                vmin().events.sdcSilent, "/",
                vmin().events.sdcNotified, ", ",
                low900().events.sdcSilent, "/",
                low900().events.sdcNotified);
        verdict.holds = holds;
        verdicts.push_back(verdict);
    }
    return verdicts;
}

size_t
ObservationChecker::countHolding(
    const std::vector<ObservationVerdict> &verdicts)
{
    return static_cast<size_t>(
        std::count_if(verdicts.begin(), verdicts.end(),
                      [](const ObservationVerdict &verdict) {
                          return verdict.holds;
                      }));
}

std::string
ObservationChecker::format(
    const std::vector<ObservationVerdict> &verdicts)
{
    TablePrinter table({"#", "claim", "measured", "verdict"});
    for (const auto &verdict : verdicts) {
        table.addRow({std::to_string(verdict.number), verdict.claim,
                      verdict.measurement,
                      verdict.holds ? "HOLDS" : "DEVIATES"});
    }
    return table.toString();
}

} // namespace xser::core
