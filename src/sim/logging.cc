/**
 * @file
 * Implementation of the global logger and fatal-error helpers.
 */

#include "sim/logging.hh"

#include <cstdlib>

namespace xser {

Logger &
Logger::global()
{
    static Logger instance;
    return instance;
}

void
Logger::emit(LogLevel level, const std::string &tag,
             const std::string &message)
{
    if (static_cast<int>(level) > static_cast<int>(level_))
        return;
    invokeLineHook();
    std::fprintf(stderr, "%s: %s\n", tag.c_str(), message.c_str());
}

void
fatal(const std::string &message)
{
    Logger::global().invokeLineHook();
    std::fprintf(stderr, "fatal: %s\n", message.c_str());
    std::exit(1);
}

void
panic(const std::string &message)
{
    Logger::global().invokeLineHook();
    std::fprintf(stderr, "panic: %s\n", message.c_str());
    std::abort();
}

void
assertFailed(const char *condition, const char *file, int line,
             std::string_view message) noexcept
{
    panic(msg("assertion failed: ", condition, " at ", file, ":", line, ": ",
              message));
}

void
warn(const std::string &message)
{
    Logger::global().emit(LogLevel::Warn, "warn", message);
}

void
inform(const std::string &message)
{
    Logger::global().emit(LogLevel::Info, "info", message);
}

void
debugLog(const std::string &message)
{
    Logger::global().emit(LogLevel::Debug, "debug", message);
}

} // namespace xser
