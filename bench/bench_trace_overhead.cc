/**
 * @file
 * Cost of the lifecycle trace subsystem, measured over the paper's
 * four-session campaign in three modes:
 *
 *   off       null sink everywhere (the shipping default);
 *   buffered  per-unit TraceBuffers filled and encoded, never written;
 *   written   the encoded unit sections merged into an .xtrace file.
 *
 * Reports wall-clock per mode and the slowdown relative to `off`, and
 * verifies that the campaign results are bit-identical across all
 * three -- tracing must observe the simulation, never perturb it.
 * Exits 1 on any result mismatch.
 */

#include <cstdio>
#include <fstream>
#include <vector>

#include "bench_common.hh"
#include "core/table_printer.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_writer.hh"

int
main(int argc, char **argv)
{
    using namespace xser;
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_trace_overhead.json";
    const double scale = bench::campaignScaleFromEnv(0.04);
    bench::banner("Trace subsystem overhead (off / buffered / written)",
                  scale);
    const core::CampaignConfig config =
        core::BeamCampaign::paperCampaign(scale);
    const char *trace_path = "bench_trace_overhead.xtrace";

    core::ParallelRunConfig run;
    run.jobs = bench::benchJobs();
    run.replicates = 2;

    const char *const modes[] = {"off", "buffered", "written"};
    std::vector<bench::TimedRun> points;
    points.push_back(bench::timedRun(config, run));

    core::ParallelRunConfig buffered = run;
    buffered.collectTrace = true;
    points.push_back(bench::timedRun(config, buffered));

    uint64_t trace_events = 0;
    uint64_t trace_bytes = 0;
    {
        trace::TraceWriter writer(trace_path);
        points.push_back(bench::timedRun(config, run, &writer));
        const trace::TraceFile file = trace::readTraceFile(trace_path);
        if (!file.ok) {
            std::printf("trace unreadable: %s\n", file.error.c_str());
            return 1;
        }
        trace_events = file.totalEvents();
        std::ifstream in(trace_path,
                         std::ios::binary | std::ios::ate);
        trace_bytes = static_cast<uint64_t>(in.tellg());
    }

    core::TablePrinter table({"mode", "seconds", "slowdown"});
    for (size_t i = 0; i < points.size(); ++i) {
        const double slowdown = points[i].seconds / points[0].seconds - 1.0;
        table.addRow({modes[i], core::TablePrinter::fmt(points[i].seconds, 2),
                      core::TablePrinter::fmt(slowdown * 100.0, 1) + "%"});
    }
    std::printf("%s\n", table.toString().c_str());
    std::printf("trace: %llu events, %llu bytes on disk\n",
                static_cast<unsigned long long>(trace_events),
                static_cast<unsigned long long>(trace_bytes));

    bool identical = true;
    for (size_t i = 1; i < points.size(); ++i)
        identical = identical && points[0].result.replicates ==
                                     points[i].result.replicates;
    std::printf("aggregates bit-identical across modes: %s\n",
                identical ? "yes" : "NO -- TRACING PERTURBED RESULTS");

    bench::BenchReport report("trace_overhead");
    report.add("scale", scale);
    report.add("jobs", static_cast<uint64_t>(bench::benchJobs()));
    report.add("trace_events", trace_events);
    report.add("trace_bytes", trace_bytes);
    report.add("aggregates_identical", identical);
    report.beginSection("seconds_by_mode");
    for (size_t i = 0; i < points.size(); ++i)
        report.add(modes[i], points[i].seconds);
    report.endSection();
    report.write(out_path);
    return identical ? 0 : 1;
}
