/**
 * @file
 * xser-lint command-line driver.
 *
 * Usage:
 *   xser-lint [--root <dir>] [--allow <file>] [--rules <set>]
 *             [--format text|json|sarif] [--diff <base-ref>]
 *             [--allow-stale] [--verbose] [dir ...]
 *
 * Scans the given directories (default: src tools bench) under the
 * repository root for determinism/soundness violations and exits
 * nonzero when any unallowed finding or config error remains.
 * `--allow` defaults to `<root>/tools/xser-lint-allow.txt` when that
 * file exists. `--rules` selects `classic` (token-level), `semantic`
 * (flow/cross-TU), or `all` (default). `--diff <base-ref>` restricts
 * reported findings to files changed relative to a git ref (allowlist
 * staleness is suppressed: a partial scan proves nothing about unused
 * entries). `--allow-stale` demotes stale allowlist entries from hard
 * errors to warnings for work-in-progress trees.
 */

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "lint/lint.hh"
#include "lint/paths.hh"

namespace {

int
usage(FILE *stream)
{
    // Always "xser-lint", never argv[0]: the help text must not vary
    // with the invocation path (the docs drift test diffs it against
    // docs/cli/xser-lint.txt).
    std::fprintf(
        stream,
        "usage: xser-lint [--root <dir>] [--allow <file>] [--rules "
        "classic|semantic|all]\n"
        "          [--format text|json|sarif] [--diff <base-ref>]\n"
        "          [--allow-stale] [--verbose] [dir ...]\n");
    return 2;
}

/** Repo-relative paths changed since `base_ref`, via git diff. */
std::vector<std::string>
changedFiles(const std::filesystem::path &root,
             const std::string &base_ref, bool &ok)
{
    std::vector<std::string> files;
    ok = false;
    const std::string command = "git -C '" + root.string() +
                                "' diff --name-only --diff-filter=d '" +
                                base_ref + "' 2>/dev/null";
    FILE *pipe = popen(command.c_str(), "r");
    if (pipe == nullptr)
        return files;
    std::string line;
    for (int c; (c = std::fgetc(pipe)) != EOF;) {
        if (c != '\n') {
            line.push_back(static_cast<char>(c));
            continue;
        }
        if (!line.empty())
            files.push_back(line);
        line.clear();
    }
    if (!line.empty())
        files.push_back(line);
    ok = pclose(pipe) == 0;
    return files;
}

} // namespace

int
main(int argc, char **argv)
{
    namespace fs = std::filesystem;
    using xser::lint::RuleSet;
    xser::lint::LintConfig config;
    config.root = ".";
    config.scanDirs.clear();
    bool verbose = false;
    bool allow_set = false;
    std::string format = "text";
    std::string diff_ref;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            config.root = argv[++i];
        } else if (arg == "--allow" && i + 1 < argc) {
            config.allowFile = argv[++i];
            allow_set = true;
        } else if (arg == "--rules" && i + 1 < argc) {
            const std::string set = argv[++i];
            if (set == "classic")
                config.rules = RuleSet::Classic;
            else if (set == "semantic")
                config.rules = RuleSet::Semantic;
            else if (set == "all")
                config.rules = RuleSet::All;
            else
                return usage(stderr);
        } else if (arg == "--format" && i + 1 < argc) {
            format = argv[++i];
            if (format != "text" && format != "json" &&
                format != "sarif")
                return usage(stderr);
        } else if (arg == "--diff" && i + 1 < argc) {
            diff_ref = argv[++i];
        } else if (arg == "--allow-stale") {
            config.allowStale = true;
        } else if (arg == "--verbose") {
            verbose = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(stderr);
        } else {
            config.scanDirs.push_back(arg);
        }
    }
    if (config.scanDirs.empty())
        config.scanDirs = {"src", "tools", "bench"};
    if (!allow_set) {
        const fs::path candidate =
            config.root / "tools" / "xser-lint-allow.txt";
        if (fs::exists(candidate))
            config.allowFile = candidate;
    }
    if (!diff_ref.empty()) {
        bool ok = false;
        for (const std::string &path :
             changedFiles(config.root, diff_ref, ok)) {
            if (path.find(' ') != std::string::npos)
                continue; // --name-only output, no escaping expected
            if (xser::lint::pathEndsWith(path, ".cc") ||
                xser::lint::pathEndsWith(path, ".hh") ||
                xser::lint::pathEndsWith(path, ".cpp") ||
                xser::lint::pathEndsWith(path, ".hpp") ||
                xser::lint::pathEndsWith(path, ".h") ||
                xser::lint::pathEndsWith(path, ".cxx"))
                config.onlyFiles.push_back(path);
        }
        if (!ok) {
            std::fprintf(stderr,
                         "xser-lint: git diff against '%s' failed\n",
                         diff_ref.c_str());
            return 2;
        }
        if (config.onlyFiles.empty()) {
            std::fprintf(stderr,
                         "xser-lint: no lintable files changed since "
                         "%s\n",
                         diff_ref.c_str());
            return 0;
        }
    }

    const xser::lint::LintReport report = xser::lint::runLint(config);

    if (format == "json")
        std::fputs(xser::lint::renderJson(report).c_str(), stdout);
    else if (format == "sarif")
        std::fputs(xser::lint::renderSarif(report).c_str(), stdout);
    else
        std::fputs(xser::lint::renderText(report, verbose).c_str(),
                   stdout);
    return report.clean() ? 0 : 1;
}
