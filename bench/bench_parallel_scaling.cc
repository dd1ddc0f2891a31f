/**
 * @file
 * Wall-clock scaling of the parallel campaign engine: run the same
 * 8-unit sweep (the paper's four sessions x 2 replicates) at 1/2/4/8
 * workers, report speedup over the single-worker baseline, and verify
 * that every worker count produces bit-identical merged results --
 * the determinism contract that makes the parallel engine safe to use
 * for the figure benches.
 *
 * Speedup tracks the machine: expect ~min(workers, cores, 8) on idle
 * hardware, and ~1x on a single-core host (the determinism checks
 * still run there).
 */

#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "core/table_printer.hh"

int
main(int argc, char **argv)
{
    using namespace xser;
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_scaling.json";
    // The scaling story needs units long enough to dwarf the pool
    // overhead but short enough for a quick sweep; 0.04 keeps the
    // 8-unit run in the minutes range on one worker.
    const double scale = bench::campaignScaleFromEnv(0.04);
    bench::banner("Parallel scaling (4 sessions x 2 replicates)", scale);
    const core::CampaignConfig config =
        core::BeamCampaign::paperCampaign(scale);

    const unsigned worker_counts[] = {1, 2, 4, 8};
    std::vector<bench::TimedRun> points;
    for (unsigned jobs : worker_counts) {
        core::ParallelRunConfig run;
        run.jobs = jobs;
        run.replicates = 2;
        points.push_back(bench::timedRun(config, run));
    }

    bool identical = true;
    for (size_t i = 1; i < points.size(); ++i)
        identical = identical && points[0].result.replicates ==
                                     points[i].result.replicates;

    core::TablePrinter table({"workers", "seconds", "speedup"});
    for (size_t i = 0; i < points.size(); ++i) {
        table.addRow({std::to_string(worker_counts[i]),
                      core::TablePrinter::fmt(points[i].seconds, 2),
                      core::TablePrinter::fmt(
                          points[0].seconds / points[i].seconds, 2) +
                          "x"});
    }
    std::printf("%s\n", table.toString().c_str());
    std::printf("hardware threads: %u\n",
                std::thread::hardware_concurrency());
    std::printf("bit-identical across worker counts: %s\n",
                identical ? "yes" : "NO -- DETERMINISM BROKEN");

    bench::BenchReport report("parallel_scaling");
    report.add("scale", scale);
    report.add("hardware_threads",
               static_cast<uint64_t>(
                   std::thread::hardware_concurrency()));
    report.add("aggregates_identical", identical);
    report.beginSection("seconds_by_workers");
    for (size_t i = 0; i < points.size(); ++i)
        report.add(std::to_string(worker_counts[i]).c_str(),
                   points[i].seconds);
    report.endSection();
    report.write(out_path);
    return identical ? 0 : 1;
}
