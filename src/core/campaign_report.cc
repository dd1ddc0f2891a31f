/**
 * @file
 * Report renderers.
 */

#include "core/campaign_report.hh"

#include <cmath>
#include <sstream>

#include "core/fit_calculator.hh"
#include "core/parallel_campaign.hh"
#include "core/table_printer.hh"
#include "sim/logging.hh"

namespace xser::core {

namespace {

/** Find the per-workload slice by name (nullptr when absent). */
const WorkloadSessionStats *
findWorkload(const SessionResult &session, const std::string &name)
{
    for (const auto &stats : session.perWorkload) {
        if (stats.name == name)
            return &stats;
    }
    return nullptr;
}

/** Per-level upsets per equivalent minute. */
double
levelRate(const SessionResult &session, mem::CacheLevel level,
          bool corrected)
{
    const double minutes = session.equivalentMinutes();
    if (minutes <= 0.0)
        return 0.0;
    const auto &tally = session.edac[static_cast<size_t>(level)];
    const uint64_t count =
        corrected ? tally.corrected : tally.uncorrected;
    return static_cast<double>(count) / minutes;
}

std::string
fitWithCi(const FitEstimate &estimate)
{
    return TablePrinter::fmt(estimate.fit, 2) + " [" +
           TablePrinter::fmt(estimate.ci.lower, 2) + ", " +
           TablePrinter::fmt(estimate.ci.upper, 2) + "]";
}

} // namespace

std::string
formatTable2(const std::vector<SessionResult> &sessions)
{
    std::vector<std::string> headers = {"Beam test session"};
    for (size_t i = 0; i < sessions.size(); ++i)
        headers.push_back(std::to_string(i + 1));
    TablePrinter table(std::move(headers));

    auto row = [&](const std::string &label, auto value_of) {
        std::vector<std::string> cells = {label};
        for (const auto &session : sessions)
            cells.push_back(value_of(session));
        table.addRow(std::move(cells));
    };

    row("Voltage Levels (mV)", [](const SessionResult &s) {
        return TablePrinter::fmt(s.point.pmdMillivolts, 0);
    });
    row("Test duration (minutes, beam-equivalent)",
        [](const SessionResult &s) {
            return TablePrinter::fmt(s.equivalentMinutes(), 0);
        });
    row("Fluence (neutrons/cm2)", [](const SessionResult &s) {
        return TablePrinter::sci(s.fluence, 2);
    });
    row("Years of NYC equivalent radiation", [](const SessionResult &s) {
        return TablePrinter::sci(s.nycYearsEquivalent(), 2);
    });
    row("SDCs and crashes (#)", [](const SessionResult &s) {
        return std::to_string(s.events.total());
    });
    row("SDCs and crashes rate (per min)", [](const SessionResult &s) {
        return TablePrinter::sci(s.errorsPerMinute(), 2);
    });
    row("Memory upsets (#)", [](const SessionResult &s) {
        return std::to_string(s.upsetsDetected);
    });
    row("Memory upsets rate (per min)", [](const SessionResult &s) {
        return TablePrinter::fmt(s.upsetsPerMinute(), 3);
    });
    row("Memory SER (FIT per MBit)", [](const SessionResult &s) {
        return TablePrinter::fmt(s.memorySerFitPerMbit(), 2);
    });
    return "Table 2: Neutron Beam Time Sessions (simulated TNF)\n" +
           table.toString();
}

std::string
formatTable3()
{
    TablePrinter table({"Setting", "Frequency", "PMD Voltage",
                        "SoC Voltage"});
    for (const auto &point : volt::paperOperatingPoints()) {
        table.addRow({point.name,
                      point.frequencyHz >= 1e9
                          ? TablePrinter::fmt(point.frequencyHz / 1e9, 1) +
                                " GHz"
                          : TablePrinter::fmt(point.frequencyHz / 1e6, 0) +
                                " MHz",
                      TablePrinter::fmt(point.pmdMillivolts, 0) + " mV",
                      TablePrinter::fmt(point.socMillivolts, 0) + " mV"});
    }
    return "Table 3: Voltage levels used in the experiments\n" +
           table.toString();
}

std::string
formatFig4(const volt::VminSweepResult &sweep_24ghz,
           const volt::VminSweepResult &sweep_900mhz)
{
    std::ostringstream os;
    os << "Fig. 4: Probability of Failure vs supply voltage\n";
    auto emit = [&os](const char *title,
                      const volt::VminSweepResult &sweep) {
        os << title << "\n";
        TablePrinter table({"Voltage [mV]", "pfail", "failures/runs"});
        for (const auto &step : sweep.steps) {
            table.addRow({TablePrinter::fmt(step.millivolts, 0),
                          TablePrinter::pct(step.pfail),
                          std::to_string(step.failures) + "/" +
                              std::to_string(step.runs)});
        }
        table.addRow({"safe Vmin",
                      TablePrinter::fmt(sweep.safeVminMillivolts, 0) +
                          " mV",
                      ""});
        os << table.toString();
    };
    emit("8 Threads @ 2.4 GHz", sweep_24ghz);
    emit("8 Threads @ 900 MHz", sweep_900mhz);
    return os.str();
}

std::string
formatFig5(const std::vector<SessionResult> &sessions_24ghz)
{
    std::vector<std::string> headers = {"Benchmark"};
    for (const auto &session : sessions_24ghz)
        headers.push_back(
            TablePrinter::fmt(session.point.pmdMillivolts, 0) + "mV");
    TablePrinter table(std::move(headers));

    std::vector<std::string> names;
    if (!sessions_24ghz.empty()) {
        for (const auto &stats : sessions_24ghz.front().perWorkload)
            names.push_back(stats.name);
    }
    for (const auto &name : names) {
        std::vector<std::string> cells = {name};
        for (const auto &session : sessions_24ghz) {
            const auto *stats = findWorkload(session, name);
            cells.push_back(TablePrinter::fmt(
                stats != nullptr
                    ? stats->upsetsPerMinute(session.beamFluxPerSecond)
                    : 0.0,
                2));
        }
        table.addRow(std::move(cells));
    }
    std::vector<std::string> totals = {"Total"};
    for (const auto &session : sessions_24ghz)
        totals.push_back(TablePrinter::fmt(session.upsetsPerMinute(), 2));
    table.addRow(std::move(totals));
    return "Fig. 5: Cache memory upsets per minute per benchmark "
           "(2.4 GHz)\n" + table.toString();
}

std::string
formatFig6(const std::vector<SessionResult> &sessions_24ghz)
{
    std::vector<std::string> headers = {"Array (recovery)"};
    for (const auto &session : sessions_24ghz)
        headers.push_back(
            TablePrinter::fmt(session.point.pmdMillivolts, 0) + "mV");
    TablePrinter table(std::move(headers));

    auto row = [&](const std::string &label, mem::CacheLevel level,
                   bool corrected) {
        std::vector<std::string> cells = {label};
        for (const auto &session : sessions_24ghz)
            cells.push_back(TablePrinter::fmt(
                levelRate(session, level, corrected), 3));
        table.addRow(std::move(cells));
    };
    row("TLBs (corrected)", mem::CacheLevel::Tlb, true);
    row("L1 Cache (corrected)", mem::CacheLevel::L1, true);
    row("L2 Cache (corrected)", mem::CacheLevel::L2, true);
    row("L3 Cache (corrected)", mem::CacheLevel::L3, true);
    row("L3 Cache (uncorrected)", mem::CacheLevel::L3, false);
    row("L2 Cache (uncorrected)", mem::CacheLevel::L2, false);
    return "Fig. 6: Cache memory upsets per minute per cache level "
           "(2.4 GHz)\n" + table.toString();
}

std::string
formatFig7(const SessionResult &session_900mhz)
{
    TablePrinter table({"Array (recovery)",
                        TablePrinter::fmt(
                            session_900mhz.point.pmdMillivolts, 0) +
                            "mV @ 900 MHz"});
    auto row = [&](const std::string &label, mem::CacheLevel level,
                   bool corrected) {
        table.addRow({label,
                      TablePrinter::fmt(
                          levelRate(session_900mhz, level, corrected),
                          3)});
    };
    row("TLB (corrected)", mem::CacheLevel::Tlb, true);
    row("L1 Cache (corrected)", mem::CacheLevel::L1, true);
    row("L2 Cache (corrected)", mem::CacheLevel::L2, true);
    row("L3 Cache (corrected)", mem::CacheLevel::L3, true);
    row("L3 Cache (uncorrected)", mem::CacheLevel::L3, false);
    return "Fig. 7: Cache memory upsets per minute per cache level "
           "(900 MHz)\n" + table.toString();
}

std::string
formatFig8(const std::vector<SessionResult> &sessions_24ghz)
{
    std::ostringstream os;
    os << "Fig. 8: Abnormal-behavior percentages per voltage "
          "(2.4 GHz)\n";
    TablePrinter table({"Voltage", "AppCrash", "SysCrash", "SDC",
                        "events"});
    for (const auto &session : sessions_24ghz) {
        const double total =
            std::max<double>(1.0,
                             static_cast<double>(session.events.total()));
        table.addRow({
            TablePrinter::fmt(session.point.pmdMillivolts, 0) + " mV",
            TablePrinter::pct(
                static_cast<double>(session.events.appCrash) / total),
            TablePrinter::pct(
                static_cast<double>(session.events.sysCrash) / total),
            TablePrinter::pct(
                static_cast<double>(session.events.sdcTotal()) / total),
            std::to_string(session.events.total()),
        });
    }
    os << table.toString();
    return os.str();
}

std::string
formatFig9(const std::vector<SessionResult> &sessions)
{
    TablePrinter table({"Operating point", "Power [W]", "Upsets / Min"});
    for (const auto &session : sessions) {
        table.addRow({session.point.label(),
                      TablePrinter::fmt(session.avgPowerWatts, 2),
                      TablePrinter::fmt(session.upsetsPerMinute(), 2)});
    }
    return "Fig. 9: Power consumption vs soft-error susceptibility\n" +
           table.toString();
}

std::string
formatFig10(const std::vector<SessionResult> &sessions)
{
    if (sessions.empty())
        return "Fig. 10: (no sessions)\n";
    const SessionResult &nominal = sessions.front();
    TablePrinter table({"Operating point", "Power Savings [%]",
                        "Susceptibility Increase [%]"});
    for (size_t i = 1; i < sessions.size(); ++i) {
        const auto &session = sessions[i];
        const double savings =
            100.0 * (nominal.avgPowerWatts - session.avgPowerWatts) /
            nominal.avgPowerWatts;
        const double susceptibility =
            100.0 * (session.upsetsPerMinute() -
                     nominal.upsetsPerMinute()) /
            std::max(nominal.upsetsPerMinute(), 1e-12);
        table.addRow({session.point.label(),
                      TablePrinter::fmt(savings, 1),
                      TablePrinter::fmt(susceptibility, 1)});
    }
    return "Fig. 10: Power savings vs susceptibility increase "
           "(vs nominal @ 2.4 GHz)\n" + table.toString();
}

std::string
formatFig11(const std::vector<SessionResult> &sessions_24ghz)
{
    TablePrinter table({"Category", "980 mV", "930 mV", "920 mV"});
    std::vector<FitBreakdown> breakdowns;
    breakdowns.reserve(sessions_24ghz.size());
    for (const auto &session : sessions_24ghz)
        breakdowns.push_back(FitCalculator::breakdown(session));

    auto row = [&](const std::string &label,
                   FitEstimate FitBreakdown::*member) {
        std::vector<std::string> cells = {label};
        for (const auto &breakdown : breakdowns)
            cells.push_back(fitWithCi(breakdown.*member));
        table.addRow(std::move(cells));
    };
    row("AppCrash", &FitBreakdown::appCrash);
    row("SysCrash", &FitBreakdown::sysCrash);
    row("SDC", &FitBreakdown::sdc);
    row("Total FIT", &FitBreakdown::total);
    return "Fig. 11: Total FIT rate of the CPU chip (2.4 GHz), "
           "FIT [95% CI]\n" + table.toString();
}

std::string
formatFig12(const std::vector<SessionResult> &sessions_24ghz)
{
    TablePrinter table({"SDC class", "980 mV", "930 mV", "920 mV"});
    std::vector<FitBreakdown> breakdowns;
    breakdowns.reserve(sessions_24ghz.size());
    for (const auto &session : sessions_24ghz)
        breakdowns.push_back(FitCalculator::breakdown(session));

    auto row = [&](const std::string &label,
                   FitEstimate FitBreakdown::*member) {
        std::vector<std::string> cells = {label};
        for (const auto &breakdown : breakdowns)
            cells.push_back(fitWithCi(breakdown.*member));
        table.addRow(std::move(cells));
    };
    row("w/o any hardware notification", &FitBreakdown::sdcSilent);
    row("w/ corrected error notification", &FitBreakdown::sdcNotified);
    return "Fig. 12: SDC FIT rates by hardware-notification class "
           "(2.4 GHz), FIT [95% CI]\n" + table.toString();
}

std::string
formatFig13(const SessionResult &session_900mhz)
{
    const FitBreakdown breakdown =
        FitCalculator::breakdown(session_900mhz);
    TablePrinter table({"SDC class", "790 mV @ 900 MHz"});
    table.addRow({"w/o any hardware notification",
                  fitWithCi(breakdown.sdcSilent)});
    table.addRow({"w/ corrected error notification",
                  fitWithCi(breakdown.sdcNotified)});
    return "Fig. 13: SDC FIT rates by hardware-notification class "
           "(900 MHz), FIT [95% CI]\n" + table.toString();
}

std::string
formatReplicateSummary(const ReplicatedCampaignResult &sweep)
{
    std::string out = "=== replicate summary (" +
                      std::to_string(sweep.replicates.size()) +
                      " replicates) ===\n";
    TablePrinter table({"session", "events", "fluence",
                        "FIT total [95% CI]", "FIT mean+-SE"});
    for (const auto &aggregate : sweep.sessions) {
        const FitBreakdown fit = aggregate.pooledFit();
        table.addRow(
            {aggregate.point.label(),
             std::to_string(aggregate.events.total()),
             TablePrinter::sci(aggregate.fluence, 2),
             TablePrinter::fmt(fit.total.fit, 2) + " [" +
                 TablePrinter::fmt(fit.total.ci.lower, 2) + ", " +
                 TablePrinter::fmt(fit.total.ci.upper, 2) + "]",
             TablePrinter::fmt(aggregate.fitTotal.mean(), 2) + " +- " +
                 TablePrinter::fmt(aggregate.fitTotal.stderrMean(),
                                   2)});
    }
    out += table.toString();
    out += "\n";
    return out;
}

std::string
formatCampaignReport(const ReplicatedCampaignResult &sweep)
{
    const CampaignResult &result = sweep.replicates.front();
    XSER_ASSERT(result.sessions.size() >= 4,
                "campaign report needs the four Table 2 sessions");
    const std::vector<SessionResult> at24ghz(
        result.sessions.begin(), result.sessions.begin() + 3);
    std::string out;
    out += formatTable2(result.sessions) + "\n";
    out += formatFig5(at24ghz) + "\n";
    out += formatFig6(at24ghz) + "\n";
    out += formatFig7(result.sessions[3]) + "\n";
    out += formatFig8(at24ghz) + "\n";
    out += formatFig9(result.sessions) + "\n";
    out += formatFig10(result.sessions) + "\n";
    out += formatFig11(at24ghz) + "\n";
    out += formatFig12(at24ghz) + "\n";
    out += formatFig13(result.sessions[3]) + "\n";
    if (sweep.replicates.size() > 1)
        out += formatReplicateSummary(sweep);
    return out;
}

std::string
renderCampaignReport(const CampaignParams &params,
                     const std::string &trace_path,
                     const ReplicatedCampaignResult &sweep)
{
    std::string out;
    if (params.wantTrace)
        out = "trace: " +
              std::to_string(sweep.replicates.size() *
                             sweep.sessions.size()) +
              " units -> " + trace_path + "\n";
    return out + formatCampaignReport(sweep);
}

} // namespace xser::core
