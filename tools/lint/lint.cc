/**
 * @file
 * Tree orchestration: enumerate the scan set, analyze each file in
 * sorted-path order, run the cross-TU rules over the collected facts,
 * and apply the allowlist.
 */

#include <algorithm>
#include <fstream>
#include <sstream>

#include "lint/facts.hh"
#include "lint/lint.hh"
#include "lint/paths.hh"
#include "lint/token.hh"

namespace xser::lint {

namespace {

bool
entryMatches(const AllowEntry &entry, const Diagnostic &diag)
{
    if (entry.rule != diag.rule)
        return false;
    if (!entry.token.empty() && entry.token != diag.token)
        return false;
    if (!entry.path.empty() && entry.path.back() == '/')
        return pathStartsWith(diag.file, entry.path);
    return entry.path == diag.file;
}

void
sortCanonical(std::vector<Diagnostic> &diags)
{
    std::sort(diags.begin(), diags.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.rule != b.rule)
                      return a.rule < b.rule;
                  return a.token < b.token;
              });
}

/** One scan-set member: absolute path, repo-relative path, and whether
 *  per-file rules run on it (facts-only dirs contribute facts only). */
struct ScanFile
{
    std::filesystem::path abs;
    std::string rel;
    bool factsOnly = false;
};

std::vector<ScanFile>
enumerateFiles(const LintConfig &config)
{
    namespace fs = std::filesystem;
    std::vector<ScanFile> files;
    auto walk = [&](const std::string &dir, bool facts_only) {
        const fs::path base = config.root / dir;
        if (!fs::is_directory(base))
            return;
        for (const auto &entry :
             fs::recursive_directory_iterator(base)) {
            if (!entry.is_regular_file())
                continue;
            const std::string ext = entry.path().extension().string();
            if (ext != ".cc" && ext != ".hh" && ext != ".cpp" &&
                ext != ".hpp" && ext != ".h" && ext != ".cxx")
                continue;
            ScanFile file;
            file.abs = entry.path();
            file.rel =
                fs::relative(entry.path(), config.root).generic_string();
            file.factsOnly = facts_only;
            files.push_back(std::move(file));
        }
    };
    for (const std::string &dir : config.scanDirs)
        walk(dir, false);
    for (const std::string &dir : config.factsDirs)
        walk(dir, true);
    std::sort(files.begin(), files.end(),
              [](const ScanFile &a, const ScanFile &b) {
                  return a.rel < b.rel;
              });
    return files;
}

} // namespace

Allowlist
parseAllowlist(const std::string &text, const std::string &file_name)
{
    Allowlist result;
    std::istringstream stream(text);
    std::string line;
    std::string justification;
    int line_number = 0;
    while (std::getline(stream, line)) {
        ++line_number;
        const std::string trimmed = normalizeSpace(line);
        if (trimmed.empty()) {
            justification.clear();
            continue;
        }
        if (trimmed[0] == '#') {
            std::string comment = trimmed.substr(1);
            if (!comment.empty() && comment[0] == ' ')
                comment.erase(0, 1);
            if (!justification.empty())
                justification += " ";
            justification += comment;
            continue;
        }
        AllowEntry entry;
        entry.line = line_number;
        entry.justification = justification;
        std::istringstream fields(trimmed);
        std::string extra;
        fields >> entry.rule >> entry.path >> extra;
        if (entry.rule.empty() || entry.path.empty()) {
            result.errors.push_back(
                {file_name, line_number, "allowlist-format", "",
                 "expected '<rule-id> <path> [token=<token>]'"});
            justification.clear();
            continue;
        }
        if (!knownRule(entry.rule)) {
            result.errors.push_back(
                {file_name, line_number, "allowlist-format", entry.rule,
                 "unknown rule id '" + entry.rule +
                     "' (a typo here would silently allow nothing)"});
            justification.clear();
            continue;
        }
        if (!extra.empty()) {
            if (pathStartsWith(extra, "token=")) {
                entry.token = extra.substr(6);
            } else {
                result.errors.push_back(
                    {file_name, line_number, "allowlist-format", extra,
                     "unrecognized field '" + extra +
                         "' (expected token=<token>)"});
                justification.clear();
                continue;
            }
        }
        if (entry.justification.empty()) {
            result.errors.push_back(
                {file_name, line_number, "allowlist-justification",
                 entry.rule,
                 "allowlist entry needs a justification comment on the "
                 "line(s) directly above it"});
            justification.clear();
            continue;
        }
        result.entries.push_back(entry);
        justification.clear();
    }
    return result;
}

LintReport
runLint(const LintConfig &config)
{
    LintReport report;

    Allowlist allowlist;
    if (!config.allowFile.empty()) {
        std::ifstream in(config.allowFile);
        if (!in) {
            report.configErrors.push_back(
                {config.allowFile.generic_string(), 0, "allowlist-io",
                 "", "cannot read allowlist file"});
        } else {
            std::ostringstream buffer;
            buffer << in.rdbuf();
            allowlist = parseAllowlist(
                buffer.str(), config.allowFile.generic_string());
            report.configErrors.insert(report.configErrors.end(),
                                       allowlist.errors.begin(),
                                       allowlist.errors.end());
        }
    }

    std::vector<Diagnostic> findings;
    std::vector<FileFacts> tree_facts;
    std::vector<FileFacts> test_facts;
    for (const ScanFile &file : enumerateFiles(config)) {
        std::ifstream in(file.abs);
        if (!in)
            continue;
        std::ostringstream buffer;
        buffer << in.rdbuf();
        const std::string content = buffer.str();
        ++report.filesScanned;
        if (file.factsOnly) {
            test_facts.push_back(extractFacts(file.rel, content));
            continue;
        }
        std::vector<Diagnostic> diags =
            lintSource(file.rel, content, config.rules);
        findings.insert(findings.end(),
                        std::make_move_iterator(diags.begin()),
                        std::make_move_iterator(diags.end()));
        tree_facts.push_back(extractFacts(file.rel, content));
    }

    // Cross-TU rules (semantic set only).
    if (config.rules != RuleSet::Classic) {
        auto append = [&](std::vector<Diagnostic> diags) {
            findings.insert(findings.end(),
                            std::make_move_iterator(diags.begin()),
                            std::make_move_iterator(diags.end()));
        };
        append(checkLayering(tree_facts));
        append(checkTraceSchemaSync(tree_facts));
        append(checkFastpathParity(tree_facts, test_facts));
        append(checkTelemetryPurity(tree_facts));
        append(checkNetConfinement(tree_facts));
    }

    // --diff mode: only report findings in the requested files.
    if (!config.onlyFiles.empty()) {
        std::vector<Diagnostic> kept;
        for (Diagnostic &diag : findings) {
            for (const std::string &only : config.onlyFiles) {
                if (diag.file == only) {
                    kept.push_back(std::move(diag));
                    break;
                }
            }
        }
        findings = std::move(kept);
    }

    sortCanonical(findings);

    std::vector<char> entry_used(allowlist.entries.size(), 0);
    for (Diagnostic &diag : findings) {
        bool matched = false;
        for (size_t e = 0; e < allowlist.entries.size(); ++e) {
            if (entryMatches(allowlist.entries[e], diag)) {
                entry_used[e] = 1;
                matched = true;
                break;
            }
        }
        if (matched)
            report.allowed.push_back(std::move(diag));
        else
            report.unallowed.push_back(std::move(diag));
    }

    // Stale entries: hard errors, unless --allow-stale demotes them or
    // --diff restricted the scan (partial findings prove nothing). An
    // entry for a rule outside the active set is never stale here --
    // the lint.Tree / lint.Semantic CI split would otherwise each
    // report the other's entries.
    if (config.onlyFiles.empty()) {
        for (size_t e = 0; e < allowlist.entries.size(); ++e) {
            if (entry_used[e])
                continue;
            const AllowEntry &entry = allowlist.entries[e];
            if (!ruleInSet(entry.rule, config.rules))
                continue;
            Diagnostic diag{
                config.allowFile.generic_string(), entry.line,
                "allowlist-stale", entry.rule,
                "allowlist entry '" + entry.rule + " " + entry.path +
                    (entry.token.empty() ? ""
                                         : " token=" + entry.token) +
                    "' no longer matches any finding; delete it (or "
                    "pass --allow-stale while reworking the tree)"};
            if (config.allowStale)
                report.staleWarnings.push_back(std::move(diag));
            else
                report.configErrors.push_back(std::move(diag));
        }
    }

    return report;
}

} // namespace xser::lint
