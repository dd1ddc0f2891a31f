/**
 * @file
 * Logging and fatal-error helpers, following the gem5 idiom: fatal() for
 * user/configuration errors the simulator cannot recover from, panic() for
 * internal invariant violations (simulator bugs), warn()/inform() for
 * status output that never stops the run.
 */

#ifndef XSER_SIM_LOGGING_HH
#define XSER_SIM_LOGGING_HH

#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>

namespace xser {

/** Verbosity levels for the global logger. */
enum class LogLevel {
    Quiet = 0,  ///< only fatal/panic output
    Warn = 1,   ///< warnings and above
    Info = 2,   ///< informational messages and above
    Debug = 3,  ///< everything, including debug traces
};

/**
 * Process-wide logging configuration. A single global instance keeps the
 * library dependency-free; tests may lower the level to keep output quiet.
 *
 * Output precedence with the telemetry progress line (src/telemetry):
 *  - LogLevel::Quiet suppresses warn/inform/debug output AND the live
 *    progress line (--quiet wins over --progress);
 *  - at any other level, the registered line hook runs before every
 *    emitted message (and before fatal/panic output), so the progress
 *    line is erased first and log lines never interleave mid-line;
 *  - fatal/panic always print, but still run the hook so the terminal
 *    is left clean.
 */
class Logger
{
  public:
    /** Erases transient terminal state (e.g. a progress line). */
    using LineHook = void (*)();

    /** Access the global logger. */
    static Logger &global();

    LogLevel level() const { return level_; }
    void setLevel(LogLevel level) { level_ = level; }

    /** Install (or clear, with nullptr) the pre-output line hook. */
    void setLineHook(LineHook hook) { lineHook_ = hook; }

    /** Run the line hook, if any (used by fatal/panic too). */
    void invokeLineHook()
    {
        if (lineHook_ != nullptr)
            lineHook_();
    }

    /** Emit a message at the given level to stderr. */
    void emit(LogLevel level, const std::string &tag,
              const std::string &message);

  private:
    LogLevel level_ = LogLevel::Warn;
    LineHook lineHook_ = nullptr;
};

/** Report a user-facing configuration error and terminate with exit(1). */
[[noreturn]] void fatal(const std::string &message);

/** Report an internal invariant violation and abort(). */
[[noreturn]] void panic(const std::string &message);

/** Non-fatal warning about suspicious but tolerated conditions. */
void warn(const std::string &message);

/** Informational status message. */
void inform(const std::string &message);

/** Debug trace message (suppressed unless LogLevel::Debug). */
void debugLog(const std::string &message);

/**
 * Build a message from streamable parts, e.g.
 * `fatal(msg("bad voltage ", mv, " mV"))`.
 */
template <typename... Args>
std::string
msg(Args &&...args)
{
    std::ostringstream os;
    // Comma-fold keeps the zero-argument instantiation warning-free.
    ((os << args), ...);
    return os.str();
}

/**
 * XSER_ASSERT's failure path: panic naming the condition, its location
 * and `message`. Out of line, so the code an assert guards carries one
 * call instead of the panic message's formatting, and an assert in a
 * hot inline function does not stop the compiler from inlining it.
 */
[[noreturn]] void assertFailed(const char *condition, const char *file,
                               int line, std::string_view message) noexcept;

/** Assert an internal invariant; panics with location info on failure. */
#define XSER_ASSERT(cond, message)                                          \
    do {                                                                    \
        if (!(cond))                                                        \
            ::xser::assertFailed(#cond, __FILE__, __LINE__, message);       \
    } while (0)

} // namespace xser

#endif // XSER_SIM_LOGGING_HH
