/**
 * @file
 * xser-bench: the repository's end-to-end benchmark (see README.md).
 *
 *   xser-bench run [--workload NAME] [--seed 7] [--seconds 20]
 *                  [--trace 0|1] [--smoke] [--out FILE] [--workdir DIR]
 *   xser-bench compare A.json B.json
 *   xser-bench selftest
 *
 * `run` prints every metric by name with its unit, then one JSON result
 * line per workload (the last line of its output is the last
 * workload's), and exits 1 when any check failed.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cli/args.hh"
#include "host.hh"
#include "record.hh"
#include "workloads.hh"

namespace xser::bench {
int selftest();
} // namespace xser::bench

namespace {

using namespace xser;
using namespace xser::bench;

void
printUsage()
{
    std::printf(
        "usage: xser-bench <command> [options]\n"
        "\n"
        "commands:\n"
        "  run       measure the benchmark workloads\n"
        "              --workload NAME  paper_local, cliff_fork,\n"
        "                               paper_distributed, or avf_inject\n"
        "                               (default: all four in turn)\n"
        "              --seed S         input seed (default 7)\n"
        "              --seconds T      measuring window per workload\n"
        "                               (default 20)\n"
        "              --trace 0|1      1 = per-layer metrics with the\n"
        "                               program's telemetry on\n"
        "              --smoke          toy sizes (for the smoke test)\n"
        "              --out FILE       append one JSON record per\n"
        "                               workload, for `compare`\n"
        "              --workdir DIR    scratch space (default: runs/\n"
        "                               next to this binary)\n"
        "  compare   xser-bench compare A.json B.json: medians,\n"
        "            quartiles, and a verdict per (workload, metric)\n"
        "  selftest  check the metric-derivation helpers\n");
}

/** Directory holding this executable (and the xser binaries). */
std::string
selfDir()
{
    std::error_code error;
    const std::filesystem::path self =
        std::filesystem::read_symlink("/proc/self/exe", error);
    return error ? "." : self.parent_path().string();
}

int
cmdRun(const cli::Args &args)
{
    for (const std::string &key : args.keys()) {
        if (key != "workload" && key != "seed" && key != "seconds" &&
            key != "trace" && key != "smoke" && key != "out" &&
            key != "workdir") {
            std::fprintf(stderr, "xser-bench run: unknown option --%s\n",
                         key.c_str());
            return 2;
        }
    }
    BenchOptions options;
    options.binDir = selfDir();
    options.seed = args.getUint("seed", 7);
    options.seconds = args.getDouble("seconds", 20.0);
    options.smoke = args.has("smoke");
    const std::string trace = args.get("trace", "0");
    if ((trace != "0" && trace != "1") || !(options.seconds >= 0.0) ||
        options.seconds > 86400.0) {
        std::fprintf(stderr, "xser-bench run: --trace takes 0 or 1 and "
                             "--seconds a number in [0, 86400]\n");
        return 2;
    }
    options.traced = trace == "1";

    std::vector<std::string> workloads = workloadNames();
    if (args.has("workload")) {
        const std::string name = args.get("workload", "");
        if (std::find(workloads.begin(), workloads.end(), name) ==
            workloads.end()) {
            std::fprintf(stderr, "xser-bench run: unknown workload '%s'\n",
                         name.c_str());
            return 2;
        }
        workloads = {name};
    }
    for (const char *binary :
         {"xser", "xser-server", "xser-worker", "xser-client"}) {
        const std::string path = options.binDir + "/" + binary;
        if (access(path.c_str(), X_OK) != 0) {
            std::fprintf(stderr, "xser-bench run: %s is missing\n",
                         path.c_str());
            return 1;
        }
    }

    const std::filesystem::path work_root =
        args.get("workdir", options.binDir + "/runs");
    options.workDir =
        (work_root / ("run-" + std::to_string(getpid()))).string();
    std::error_code error;
    std::filesystem::create_directories(options.workDir, error);
    if (error) {
        std::fprintf(stderr, "xser-bench run: cannot create %s\n",
                     options.workDir.c_str());
        return 1;
    }

    const HostInfo host = hostInfo();
    std::printf("%s\n", formatHostLine(host).c_str());
    std::ofstream out;
    if (args.has("out"))
        out.open(args.get("out", ""), std::ios::app);
    bool correct = true;
    for (const std::string &name : workloads) {
        std::printf("== %s: seed %llu, %g s window, trace %s%s ==\n",
                    name.c_str(),
                    static_cast<unsigned long long>(options.seed),
                    options.seconds, options.traced ? "on" : "off",
                    options.smoke ? ", smoke sizes" : "");
        const RunResult result = runWorkload(name, options);
        correct = correct && result.correct();
        if (out.is_open())
            out << recordLine(result, host) << "\n";
        std::printf("%s\n", resultLine(result).c_str());
        std::fflush(stdout);
    }
    std::filesystem::remove_all(options.workDir, error);
    if (args.has("out") && !out) {
        std::fprintf(stderr, "xser-bench run: cannot write %s\n",
                     args.get("out", "").c_str());
        return 1;
    }
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string command = argc > 1 ? argv[1] : "";
    if (command == "compare") {
        if (argc != 4) {
            printUsage();
            return 2;
        }
        return compareRecordFiles(argv[2], argv[3]);
    }
    if (command == "selftest")
        return selftest();
    if (command == "run")
        return cmdRun(cli::Args::parse(argc, argv));
    printUsage();
    return command == "help" || command == "--help" ? 0 : 2;
}
