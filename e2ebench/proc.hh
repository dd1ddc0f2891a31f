/**
 * @file
 * Child processes for the benchmark: every backend runs in a process of
 * its own, so its wall time, CPU time, and peak RSS come from wait4's
 * rusage and the bench itself never starts a thread.
 *
 * Children get SIGKILL if the bench dies (PR_SET_PDEATHSIG), and every
 * wait has a deadline after which the child is killed and reaped, so a
 * hung backend can never outlive or stall a run.
 */

#ifndef XSER_E2EBENCH_PROC_HH
#define XSER_E2EBENCH_PROC_HH

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace xser::bench {

/** A started child process. */
struct Child {
    pid_t pid = -1;
    uint64_t startNanos = 0;  ///< telemetry::monotonicNanos() at spawn
};

/** How a child ended. */
struct ChildUsage {
    int exitCode = -1;        ///< exit status; -1 when killed or lost
    bool timedOut = false;    ///< killed because its deadline passed
    double wallSeconds = 0.0; ///< spawn to reap
    double cpuSeconds = 0.0;  ///< user + system
    double maxRssMb = 0.0;    ///< ru_maxrss in MiB

    bool ok() const { return exitCode == 0 && !timedOut; }
};

/**
 * fork + exec `argv` (argv[0] is a path) with stdout and stderr sent to
 * files, optionally in another working directory. Returns pid -1 when
 * fork fails; an exec failure shows as exit code 127.
 */
Child spawnProgram(const std::vector<std::string> &argv,
                   const std::string &stdout_path,
                   const std::string &stderr_path,
                   const std::string &cwd = "");

/**
 * fork and run `body` in the child with stdout/stderr redirected; the
 * child exits with body's return value. The bench is single-threaded,
 * so the child may use the whole library (including thread pools).
 */
Child spawnFunction(const std::function<int()> &body,
                    const std::string &stdout_path,
                    const std::string &stderr_path);

/**
 * Reap `child`, killing it first if it is still running at
 * `deadline_nanos` (a telemetry::monotonicNanos() reading).
 */
ChildUsage awaitChild(const Child &child, uint64_t deadline_nanos);

/** SIGKILL and reap a child whose result no longer matters. */
void killChild(const Child &child);

} // namespace xser::bench

#endif // XSER_E2EBENCH_PROC_HH
