/**
 * @file
 * Shard throughput of the distributed campaign service: run the same
 * reduced campaign through xser-server with 1, 2, and 4 local worker
 * processes, report units/second and speedup over the single-worker
 * baseline, and byte-compare the report and .xtrace artifacts across
 * worker counts -- the distributed analogue of bench_parallel_scaling
 * (DESIGN.md section 12).
 *
 *   bench_distributed [BENCH_distributed.json]
 *
 * The server/worker/client binaries are located relative to this
 * binary (../src), so the bench runs out of any build directory.
 * Exit 0 when every worker count produced identical bytes; 1 on any
 * drift (a determinism regression in the shard protocol or merge).
 */

#include <sys/stat.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench_common.hh"
#include "core/table_printer.hh"
#include "telemetry/stopwatch.hh"

namespace {

using namespace xser;

/**
 * Directory containing the xser binaries, derived from argv[0] and
 * made absolute (children chdir before exec).
 */
std::string
binDir(const char *argv0)
{
    const std::string self(argv0);
    const size_t slash = self.rfind('/');
    const std::string here =
        slash == std::string::npos ? "." : self.substr(0, slash);
    char resolved[4096];
    if (realpath((here + "/../src").c_str(), resolved) == nullptr)
        fatal(msg("cannot resolve the binary directory next to ",
                  argv0));
    return resolved;
}

/**
 * fork+exec with stdout/stderr sent to `log_path` and an optional
 * working directory; returns the pid.
 */
pid_t
spawn(const std::vector<std::string> &args,
      const std::string &log_path, const std::string &cwd = "")
{
    // Flush before forking: the child's freopen would otherwise flush
    // the parent's buffered output a second time.
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0)
        fatal("fork failed");
    if (pid > 0)
        return pid;
    if (std::freopen(log_path.c_str(), "w", stdout) == nullptr)
        std::_Exit(127);
    if (dup2(fileno(stdout), fileno(stderr)) < 0)
        std::_Exit(127);
    if (!cwd.empty() && chdir(cwd.c_str()) != 0)
        std::_Exit(127);
    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (const std::string &arg : args)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    std::_Exit(127);
}

/** Wait for a pid; returns its exit code (or -1 on abnormal exit). */
int
await(pid_t pid)
{
    int status = 0;
    if (waitpid(pid, &status, 0) != pid)
        return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Poll a port file written by `xser-server --port-file`. */
std::string
awaitPort(const std::string &path)
{
    for (int i = 0; i < 200; ++i) {
        std::string contents = slurp(path);
        while (!contents.empty() &&
               (contents.back() == '\n' || contents.back() == '\r'))
            contents.pop_back();
        if (!contents.empty())
            return contents;
        usleep(50 * 1000);
    }
    fatal(msg("server never wrote its port to ", path));
    return "";
}

struct DistributedPoint {
    unsigned workers = 0;
    double seconds = 0.0;
    std::string report;
    std::string trace;
};

DistributedPoint
runDistributed(const std::string &bin, const std::string &dir,
               unsigned workers, double scale)
{
    if (mkdir(dir.c_str(), 0755) != 0)
        fatal(msg("cannot create bench directory ", dir));
    const std::string port_file = dir + "/port.txt";
    const pid_t server = spawn(
        {bin + "/xser-server", "--port", "0", "--port-file", port_file,
         "--max-campaigns", "1"},
        dir + "/server.log");
    const std::string port = awaitPort(port_file);
    for (unsigned i = 0; i < workers; ++i)
        spawn({bin + "/xser-worker", "--port", port},
              dir + "/worker" + std::to_string(i) + ".log");

    // The client runs inside `dir` with a relative --trace path: the
    // path appears verbatim in the report, so an absolute per-dir path
    // would defeat the byte-compare across worker counts.
    const telemetry::Stopwatch watch;
    const pid_t client = spawn(
        {bin + "/xser-client", "run", "--port", port, "--scale",
         std::to_string(scale), "--seed", "7", "--replicates", "2",
         "--trace", "out.xtrace"},
        dir + "/report.txt", dir);
    if (await(client) != 0)
        fatal(msg("xser-client failed; see ", dir, "/report.txt"));
    DistributedPoint point;
    point.seconds = watch.seconds();
    point.workers = workers;
    if (await(server) != 0)
        fatal(msg("xser-server failed; see ", dir, "/server.log"));
    point.report = slurp(dir + "/report.txt");
    point.trace = slurp(dir + "/out.xtrace");
    if (point.report.empty() || point.trace.empty())
        fatal(msg("empty artifacts under ", dir));
    return point;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_distributed.json";
    const double scale = bench::campaignScaleFromEnv(0.005);
    bench::banner("Distributed shard throughput (server + workers)", scale);
    const std::string bin = binDir(argv[0]);

    char workdir[] = "/tmp/xser-bench-distributed-XXXXXX";
    if (mkdtemp(workdir) == nullptr)
        fatal("cannot create bench scratch directory");

    std::vector<DistributedPoint> points;
    for (unsigned workers : {1u, 2u, 4u})
        points.push_back(runDistributed(
            bin, std::string(workdir) + "/w" + std::to_string(workers),
            workers, scale));

    bool identical = true;
    for (size_t i = 1; i < points.size(); ++i)
        identical = identical &&
                    points[i].report == points[0].report &&
                    points[i].trace == points[0].trace;

    // 4 sessions x 2 replicates = 8 units per campaign.
    const double units = 8.0;
    core::TablePrinter table(
        {"workers", "seconds", "units/s", "speedup"});
    for (const auto &point : points) {
        table.addRow({std::to_string(point.workers),
                      core::TablePrinter::fmt(point.seconds, 2),
                      core::TablePrinter::fmt(units / point.seconds, 2),
                      core::TablePrinter::fmt(
                          points[0].seconds / point.seconds, 2) +
                          "x"});
    }
    std::printf("%s\n", table.toString().c_str());
    std::printf("artifacts bit-identical across worker counts: %s\n",
                identical ? "yes" : "NO -- DETERMINISM BROKEN");

    bench::BenchReport report("distributed");
    report.add("scale", scale);
    report.add("units", static_cast<uint64_t>(units));
    report.add("artifacts_identical", identical);
    report.beginSection("seconds_by_workers");
    for (const auto &point : points)
        report.add(std::to_string(point.workers).c_str(),
                   point.seconds);
    report.endSection();
    report.write(out_path);
    return identical ? 0 : 1;
}
