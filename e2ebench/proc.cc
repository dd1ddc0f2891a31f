/**
 * @file
 * Child-process helpers implementation.
 */

#include "proc.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "telemetry/stopwatch.hh"

namespace xser::bench {

namespace {

/** Redirect fd `target` to `path` (truncating); false on failure. */
bool
redirect(int target, const std::string &path)
{
    const int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;
    const bool ok = dup2(fd, target) >= 0;
    close(fd);
    return ok;
}

/**
 * fork with the parent's stdio flushed first (the child would otherwise
 * flush the parent's buffered output a second time). In the child:
 * die with the bench, then redirect stdout/stderr; exit 127 on failure.
 */
Child
forkChild(const std::string &stdout_path, const std::string &stderr_path)
{
    std::fflush(stdout);
    std::fflush(stderr);
    Child child;
    child.startNanos = telemetry::monotonicNanos();
    child.pid = fork();
    if (child.pid != 0)
        return child;
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (!redirect(STDOUT_FILENO, stdout_path) ||
        !redirect(STDERR_FILENO, stderr_path))
        std::_Exit(127);
    return child;
}

extern "C" void
onAlarm(int)
{
}

/**
 * A repeating 20 ms interval timer interrupts a blocking wait4 so the
 * deadline is re-checked; repeating (not one-shot) so a tick that lands
 * just before wait4 blocks cannot leave it blocked forever.
 */
void
setTicker(bool on)
{
    static bool installed = false;
    if (!installed) {
        struct sigaction action = {};
        action.sa_handler = onAlarm;
        sigemptyset(&action.sa_mask);
        action.sa_flags = 0; // no SA_RESTART: wait4 must see EINTR
        sigaction(SIGALRM, &action, nullptr);
        installed = true;
    }
    struct itimerval timer = {};
    if (on) {
        timer.it_value.tv_usec = 20000;
        timer.it_interval.tv_usec = 20000;
    }
    setitimer(ITIMER_REAL, &timer, nullptr);
}

double
seconds(const struct timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

} // namespace

Child
spawnProgram(const std::vector<std::string> &argv,
             const std::string &stdout_path,
             const std::string &stderr_path, const std::string &cwd)
{
    const Child child = forkChild(stdout_path, stderr_path);
    if (child.pid != 0)
        return child;
    if (!cwd.empty() && chdir(cwd.c_str()) != 0)
        std::_Exit(127);
    std::vector<char *> args;
    args.reserve(argv.size() + 1);
    for (const std::string &arg : argv)
        args.push_back(const_cast<char *>(arg.c_str()));
    args.push_back(nullptr);
    execv(args[0], args.data());
    std::_Exit(127);
}

Child
spawnFunction(const std::function<int()> &body,
              const std::string &stdout_path,
              const std::string &stderr_path)
{
    const Child child = forkChild(stdout_path, stderr_path);
    if (child.pid != 0)
        return child;
    const int code = body();
    std::fflush(stdout);
    std::fflush(stderr);
    std::_Exit(code);
}

ChildUsage
awaitChild(const Child &child, uint64_t deadline_nanos)
{
    ChildUsage usage;
    if (child.pid <= 0)
        return usage;
    int status = 0;
    struct rusage rusage = {};
    setTicker(true);
    for (;;) {
        if (!usage.timedOut &&
            telemetry::monotonicNanos() >= deadline_nanos) {
            kill(child.pid, SIGKILL);
            usage.timedOut = true;
        }
        const pid_t got = wait4(child.pid, &status, 0, &rusage);
        if (got == child.pid)
            break;
        if (got < 0 && errno != EINTR) {
            setTicker(false);
            return usage;
        }
    }
    setTicker(false);
    usage.wallSeconds =
        static_cast<double>(telemetry::monotonicNanos() -
                            child.startNanos) *
        1e-9;
    usage.cpuSeconds = seconds(rusage.ru_utime) + seconds(rusage.ru_stime);
    usage.maxRssMb = static_cast<double>(rusage.ru_maxrss) / 1024.0;
    usage.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return usage;
}

void
killChild(const Child &child)
{
    if (child.pid <= 0)
        return;
    kill(child.pid, SIGKILL);
    int status = 0;
    while (waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
    }
}

} // namespace xser::bench
