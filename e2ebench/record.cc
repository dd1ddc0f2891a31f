/**
 * @file
 * Metric catalogue, result lines, record files, and compare.
 */

#include "record.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/table_printer.hh"
#include "stats.hh"
#include "telemetry/json.hh"
#include "telemetry/manifest.hh"

namespace xser::bench {

namespace {

constexpr bool higher = true;
constexpr bool lower = false;

std::string
quoted(const std::string &text)
{
    return telemetry::JsonWriter::quote(text);
}

std::string
percent(double fraction)
{
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%+.1f%%", fraction * 100.0);
    return buffer;
}

/** Five significant digits: set-up times are a few milliseconds. */
std::string
significant(double value)
{
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.5g", value);
    return buffer;
}

std::string
spreadCell(const std::vector<double> &values)
{
    const Quartiles q = quartiles(values);
    return significant(q.q2) + " [" + significant(q.q1) + ", " +
           significant(q.q3) + "] n=" + std::to_string(values.size());
}

} // namespace

std::string
number(double value)
{
    if (!std::isfinite(value))
        return "0";
    if (value == std::floor(value) && std::fabs(value) < 9.0e15) {
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%.0f", value);
        return buffer;
    }
    return telemetry::JsonWriter::formatDouble(value);
}

double
numberMember(const telemetry::JsonValue &object, const char *name)
{
    const telemetry::JsonValue *value = object.find(name);
    return value != nullptr &&
                   value->kind == telemetry::JsonValue::Kind::Number
               ? value->number
               : 0.0;
}

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"units_per_s", "units/s", higher, 0.25},
        {"setup_s", "s", lower, 0.25},
        {"peak_rss_mb", "MB", lower, 0.20},
    };
    return specs;
}

const std::vector<MetricSpec> &
layerMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"snapshot.encode_frac", "fraction", lower, 0},
        {"snapshot.restore_frac", "fraction", lower, 0},
        {"snapshot.sealed_mb", "MB", lower, 0},
        {"snapshot.opened_mb", "MB", lower, 0},
        {"core.prefix_frac", "fraction", lower, 0},
        {"core.continuation_frac", "fraction", higher, 0},
        {"core.units", "count", higher, 0},
        {"core.pool_util", "fraction", higher, 0},
        {"workloads.runs", "count", higher, 0},
        {"mem.snoop_probes", "count", lower, 0},
        {"mem.snoop_filter_ratio", "fraction", higher, 0},
        {"mem.scrub_lines", "count", lower, 0},
        {"mem.edac_ce", "count", lower, 0},
        {"mem.edac_ue", "count", lower, 0},
        {"rad.beam_arrivals", "count", lower, 0},
        {"rad.beam_settles", "count", lower, 0},
        {"rad.quanta_skipped", "count", higher, 0},
        {"cpu.platform_ctor_ms", "ms", lower, 0},
        {"inject.estimate_frac.tlb", "fraction", lower, 0},
        {"inject.estimate_frac.l1", "fraction", lower, 0},
        {"inject.estimate_frac.l2", "fraction", lower, 0},
        {"inject.estimate_frac.l3", "fraction", lower, 0},
        {"inject.rebuilds", "count", lower, 0},
        {"service.server_cpu_frac", "fraction", lower, 0},
        {"service.worker_util", "fraction", higher, 0},
        {"trace.events", "count", lower, 0},
        {"trace.write_frac", "fraction", lower, 0},
        {"trace.file_mb", "MB", lower, 0},
        {"proc.cpu_s", "s", lower, 0},
        {"bench.trace_overhead", "fraction", lower, 0},
    };
    return specs;
}

const std::vector<MetricSpec> &
layerDetailMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"snapshot.encode_s", "s", lower, 0},
        {"snapshot.restore_s", "s", lower, 0},
        {"core.prefix_s", "s", lower, 0},
        {"core.continuation_s", "s", lower, 0},
        {"core.idle_s", "s", lower, 0},
        {"workloads.host_ms_per_run", "ms", lower, 0},
        {"inject.estimate_s.tlb", "s", lower, 0},
        {"inject.estimate_s.l1", "s", lower, 0},
        {"inject.estimate_s.l2", "s", lower, 0},
        {"inject.estimate_s.l3", "s", lower, 0},
        {"service.server_cpu_s", "s", lower, 0},
        {"service.worker_cpu_s.sum", "s", lower, 0},
        {"service.worker_cpu_s.max", "s", lower, 0},
        {"service.worker_cpu_s.min", "s", lower, 0},
        {"trace.write_s", "s", lower, 0},
    };
    return specs;
}

std::string
resultLine(const RunResult &result)
{
    std::string line = "{\"correct\": ";
    line += result.correct() ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(result.attempted);
    line += ", \"failed\": " + std::to_string(result.failed);
    line += ", \"metrics\": {";
    const auto &specs =
        result.traced ? layerMetrics() : endToEndMetrics();
    for (size_t i = 0; i < specs.size(); ++i) {
        const auto found = result.metrics.find(specs[i].name);
        const double value =
            found == result.metrics.end() ? 0.0 : found->second;
        line += (i == 0 ? "" : ", ") + quoted(specs[i].name) +
                ": {\"value\": " + number(value) +
                ", \"unit\": " + quoted(specs[i].unit) + "}";
    }
    return line + "}}";
}

std::string
recordLine(const RunResult &result, const HostInfo &host)
{
    std::string line = "{\"workload\": " + quoted(result.workload);
    line += ", \"seed\": " + std::to_string(result.seed);
    line += ", \"trace\": " + std::string(result.traced ? "1" : "0");
    line += ", \"host\": {\"cores\": " + std::to_string(host.cores) +
            ", \"cpu\": " + quoted(host.cpuModel) +
            ", \"compiler\": " + quoted(host.compiler) +
            ", \"build\": " + quoted(host.buildType) +
            ", \"git\": " + quoted(host.gitDescribe) + "}";
    line += ", \"correct\": " +
            std::string(result.correct() ? "true" : "false");
    line += ", \"attempted\": " + std::to_string(result.attempted);
    line += ", \"failed\": " + std::to_string(result.failed);
    line += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, value] : result.metrics) {
        line += (first ? "" : ", ") + quoted(name) + ": " + number(value);
        first = false;
    }
    return line + "}}";
}

bool
readRecords(const std::string &path, std::vector<RunResult> &runs,
            std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read " + path;
        return false;
    }
    std::string line;
    size_t line_number = 0;
    while (std::getline(in, line)) {
        ++line_number;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        const telemetry::ParsedJson parsed = telemetry::parseJson(line);
        const telemetry::JsonValue *workload =
            parsed.ok ? parsed.root.find("workload") : nullptr;
        const telemetry::JsonValue *metrics =
            parsed.ok ? parsed.root.find("metrics") : nullptr;
        const telemetry::JsonValue *correct =
            parsed.ok ? parsed.root.find("correct") : nullptr;
        if (workload == nullptr || metrics == nullptr ||
            correct == nullptr ||
            workload->kind != telemetry::JsonValue::Kind::String ||
            metrics->kind != telemetry::JsonValue::Kind::Object ||
            correct->kind != telemetry::JsonValue::Kind::Bool) {
            error = path + ":" + std::to_string(line_number) +
                    ": not an xser-bench record" +
                    (parsed.ok ? "" : " (" + parsed.error + ")");
            return false;
        }
        RunResult run;
        run.workload = workload->text;
        run.seed = static_cast<uint64_t>(numberMember(parsed.root, "seed"));
        run.traced = numberMember(parsed.root, "trace") != 0.0;
        run.attempted =
            static_cast<uint64_t>(numberMember(parsed.root, "attempted"));
        run.failed =
            static_cast<uint64_t>(numberMember(parsed.root, "failed"));
        if (!correct->boolean && run.failed == 0)
            run.failures.push_back("recorded as incorrect");
        for (const auto &[name, value] : metrics->members) {
            if (value.kind == telemetry::JsonValue::Kind::Number)
                run.metrics[name] = value.number;
        }
        runs.push_back(std::move(run));
    }
    return true;
}

int
compareRecordFiles(const std::string &baseline_path,
                   const std::string &candidate_path)
{
    std::vector<RunResult> baseline;
    std::vector<RunResult> candidate;
    std::string error;
    if (!readRecords(baseline_path, baseline, error) ||
        !readRecords(candidate_path, candidate, error)) {
        std::fprintf(stderr, "xser-bench compare: %s\n", error.c_str());
        return 2;
    }

    // Workloads in first-seen order; only correct runs count.
    std::vector<std::string> workloads;
    for (const auto *set : {&baseline, &candidate}) {
        for (const RunResult &run : *set) {
            if (std::find(workloads.begin(), workloads.end(),
                          run.workload) == workloads.end())
                workloads.push_back(run.workload);
        }
    }
    const auto values = [](const std::vector<RunResult> &runs,
                           const std::string &workload,
                           const std::string &metric) {
        std::vector<double> out;
        for (const RunResult &run : runs) {
            const auto found = run.metrics.find(metric);
            if (run.workload == workload && run.correct() &&
                found != run.metrics.end())
                out.push_back(found->second);
        }
        return out;
    };

    core::TablePrinter table({"workload", "metric", "unit",
                              "A median [q1, q3]", "B median [q1, q3]",
                              "change", "bound", "verdict"});
    bool any_worse = false;
    for (const std::string &workload : workloads) {
        for (const auto *list : {&endToEndMetrics(), &layerMetrics(),
                                 &layerDetailMetrics()}) {
            for (const MetricSpec &spec : *list) {
                const std::vector<double> a =
                    values(baseline, workload, spec.name);
                const std::vector<double> b =
                    values(candidate, workload, spec.name);
                if (a.empty() || b.empty())
                    continue;
                std::string verdict = "-";
                std::string bound = "-";
                if (spec.bound > 0.0) {
                    const Verdict v = compareRuns(
                        a, b, spec.higherIsBetter, spec.bound);
                    any_worse = any_worse || v == Verdict::Worse;
                    verdict = verdictName(v);
                    bound = percent(spec.bound);
                }
                table.addRow({workload, spec.name, spec.unit,
                              spreadCell(a), spreadCell(b),
                              percent(worsening(median(a), median(b),
                                                spec.higherIsBetter)),
                              bound, verdict});
            }
        }
    }
    std::printf("A = %s, B = %s; change > 0 means B is worse\n%s",
                baseline_path.c_str(), candidate_path.c_str(),
                table.toString().c_str());
    return any_worse ? 1 : 0;
}

} // namespace xser::bench
