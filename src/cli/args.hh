/**
 * @file
 * Minimal command-line argument parser for the xser CLI: a positional
 * command followed by `--key value` / `--flag` options.
 */

#ifndef XSER_CLI_ARGS_HH
#define XSER_CLI_ARGS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace xser::core {
struct CampaignParams;
struct SessionConfig;
} // namespace xser::core

namespace xser::cli {

/**
 * Parsed command line. Unknown options are collected so commands can
 * reject them with a useful message.
 */
class Args
{
  public:
    /**
     * Parse argv. The first non-option token is the command; options
     * are `--key value` pairs, or bare `--key` flags when the next
     * token is another option or the end.
     */
    static Args parse(int argc, const char *const *argv);

    /** The positional command ("session", "campaign", ...). */
    const std::string &command() const { return command_; }

    /** True when --key was given (with or without a value). */
    bool has(const std::string &key) const;

    /** String option with default. */
    std::string get(const std::string &key,
                    const std::string &fallback) const;

    /**
     * Numeric option with default. Fatal on an unparseable value and
     * on NaN or an infinity, naming the option.
     */
    double getDouble(const std::string &key, double fallback) const;

    /** Integer option with default (fatal on unparseable value). */
    uint64_t getUint(const std::string &key, uint64_t fallback) const;

    /**
     * Range-checked count option: an integer in [min_value, max_value].
     * Fatal on unparseable or out-of-range values.
     */
    uint64_t getCount(const std::string &key, uint64_t fallback,
                      uint64_t min_value, uint64_t max_value) const;

    /**
     * Worker-count option: a positive integer, or "auto" for the
     * hardware thread count. Fatal on zero or unparseable values.
     */
    unsigned getJobs(const std::string &key, unsigned fallback) const;

    /**
     * All option keys seen, in command-line order (a repeated option
     * once, where it first appeared), for unknown-option diagnostics.
     */
    const std::vector<std::string> &keys() const { return order_; }

  private:
    std::string command_;
    std::map<std::string, std::string> options_;
    std::vector<std::string> order_;
};

/**
 * Refuse a misspelled or foreign option: fatal (exit 1) naming the
 * first option, in command-line order, that `tool`'s command
 * args.command() does not read. `tool` is the executable name --
 * "xser", "xser-server", "xser-worker", "xser-client", "xser-trace"
 * or "xser-metrics". A command the tool does not have is left to its
 * usage message.
 */
void requireKnownOptions(const Args &args, const std::string &tool);

/**
 * Print `tool`'s --help text to stdout: every command with its summary
 * and one line per option it reads, rendered from the same table
 * requireKnownOptions() checks against.
 */
void printHelp(const std::string &tool);

/**
 * Vet a command line before `tool` runs it. Returns the status to exit
 * with when nothing should run -- 0 after printing the help for
 * `help`, `-h` or `--help`, 2 after printing it for a command `tool`
 * does not have -- and -1 for a command to run, once
 * requireKnownOptions() has refused any option it does not read.
 */
int vetCommandLine(const Args &args, const std::string &tool);

/**
 * File path given to a --name option: empty when the option is absent,
 * fatal when it is given without a path.
 */
std::string pathOption(const Args &args, const char *name);

/** --trace-buffer-events: per-unit trace capacity, range-checked. */
uint64_t traceBufferEvents(const Args &args);

/**
 * The session `xser session` runs, from --pmd (required), --soc,
 * --freq, --events, --fluence, --warmup and --seed. Fatal on a stop
 * target that would end the session before it measures anything:
 * --events 0, or a --fluence that is not positive.
 */
core::SessionConfig sessionConfig(const Args &args);

/**
 * The campaign options `xser campaign` and `xser-client run` share --
 * --scale, --seed, --replicates, --trace-buffer-events, and whether
 * --trace / --metrics were given --
 * with configHash filled from the rebuilt campaign. Fatal on a value
 * outside the bounds core/beam_campaign.hh defines.
 */
core::CampaignParams campaignParams(const Args &args);

} // namespace xser::cli

#endif // XSER_CLI_ARGS_HH
