/**
 * @file
 * xser-lint: the project-specific determinism & soundness analyzer.
 *
 * The parallel campaign engine is only bit-reproducible because every
 * work unit obeys a determinism contract: RNG streams derive solely
 * from (seed, session, replicate), no unordered-container iteration
 * feeds floating-point reductions, and the simulation core never reads
 * wall-clock time or the environment. This library turns that contract
 * into machine-checked rules over `src/`, `tools/`, and `bench/`.
 *
 * v2 is a semantic analyzer: a preprocessor-aware tokenizer (see
 * token.hh) feeds a lightweight declaration/flow layer (see facts.hh)
 * -- no libclang, just an include graph, per-TU symbol facts, and
 * function-scope flow facts. Rules come in two sets:
 *
 * Classic (token-level, per file):
 *  - wallclock: no time/clock/environment reads outside the sanctioned
 *    sites (`src/sim/rng.cc`, `src/cli/`);
 *  - raw-rng: no `std::rand`, `std::random_device`, or raw standard
 *    RNG engines outside `src/sim/rng` -- all streams must come from
 *    `xser::Rng` / `xser::deriveStreamSeed`;
 *  - unordered-decl / unordered-iter: no unordered-container
 *    declarations or iteration in the order-sensitive subsystems;
 *  - header-guard / header-using-namespace: include guards present,
 *    never `using namespace` in a header;
 *  - parallel-fanin: no threading primitives or OpenMP outside the
 *    canonical fan-in (`src/core/parallel_campaign.cc`) and the lint
 *    scanner's own worker pool (`tools/lint/`).
 *
 * Semantic (flow-aware and cross-TU):
 *  - layering: the `src/` include graph must respect the layer DAG and
 *    contain no cycles (reported with the offending include chain);
 *  - rng-stream-discipline: every `xser::Rng` construction in
 *    simulation code must carry explicit seed provenance
 *    (deriveStreamSeed, a fork of a parent stream, or a seed-named
 *    input), and engines must not be hoisted out of session/replicate
 *    loops and shared across coordinates;
 *  - fp-reduction-order: floating-point accumulation must never
 *    iterate a hash-ordered container (the canonical Chan merge in
 *    `parallel_campaign.cc` is the sanctioned fan-in);
 *  - trace-schema-sync: the `EventType` enum, `numEventTypes`, and
 *    every switch over the event set must agree -- adding an event in
 *    one place but not the others is a lint error;
 *  - fastpath-parity: every `*Reference`/`*_reference` implementation
 *    in `src/` needs a matching fast implementation beside it and a
 *    differential test under `tests/`.
 *
 * The scanner strips comments and literals, so banned names inside
 * documentation never trip it. Exceptions live in an annotated
 * allowlist where every entry must carry a written justification;
 * entries that stop matching anything are hard errors (CI) with a
 * `--allow-stale` escape hatch for local WIP trees. Reports render as
 * text, JSON, or SARIF 2.1.0 for code-scanning upload.
 */

#ifndef XSER_TOOLS_LINT_LINT_HH
#define XSER_TOOLS_LINT_LINT_HH

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace xser::lint {

/** One finding, printed as `file:line: rule-id: message`. */
struct Diagnostic
{
    std::string file;    ///< Repo-relative path with forward slashes.
    int line = 0;        ///< 1-based line of the offending token.
    std::string rule;    ///< Stable rule identifier (e.g. "raw-rng").
    std::string token;   ///< Offending token, for allowlist targeting.
    std::string message; ///< Human-readable explanation.

    /** Render in the canonical `file:line: rule-id: message` form. */
    std::string format() const;
};

/** One allowlist entry: `<rule-id> <path> [token=<token>]`. */
struct AllowEntry
{
    std::string rule;          ///< Rule the entry silences.
    std::string path;          ///< Exact file, or directory prefix
                               ///< ending in '/'.
    std::string token;         ///< Optional token restriction.
    std::string justification; ///< Comment block above the entry.
    int line = 0;              ///< Line in the allowlist file.
};

/** Parsed allowlist plus any format errors found while parsing. */
struct Allowlist
{
    std::vector<AllowEntry> entries;
    /** Malformed or unjustified entries (rule "allowlist-format"). */
    std::vector<Diagnostic> errors;
};

/**
 * Parse allowlist text. Blank lines and `#` comments are free-form;
 * each entry line must be immediately preceded by at least one comment
 * line, which becomes its recorded justification. Entries naming an
 * unknown rule id are format errors (typos must not silently allow
 * nothing).
 *
 * @param text Full contents of the allowlist file.
 * @param file_name Name used in error diagnostics.
 */
Allowlist parseAllowlist(const std::string &text,
                         const std::string &file_name);

/** Which rules to run. */
enum class RuleSet { Classic, Semantic, All };

/** Stable metadata for one rule id (drives SARIF and docs). */
struct RuleInfo
{
    std::string id;
    std::string description;
    bool semantic = false; ///< Belongs to RuleSet::Semantic.
};

/** Every rule id the analyzer can emit, in stable order. */
const std::vector<RuleInfo> &ruleTable();

/** True when `rule` is a known finding rule id. */
bool knownRule(const std::string &rule);

/** True when `rule` belongs to the given set. */
bool ruleInSet(const std::string &rule, RuleSet set);

/**
 * Lint a single translation unit held in memory (per-file rules of the
 * requested set; cross-TU rules need runLint).
 *
 * @param rel_path Repo-relative path (drives per-directory rules).
 * @param content Full source text.
 * @param rules Which rule set to apply.
 */
std::vector<Diagnostic> lintSource(const std::string &rel_path,
                                   const std::string &content,
                                   RuleSet rules = RuleSet::All);

/** What to scan and which allowlist to honour. */
struct LintConfig
{
    std::filesystem::path root;              ///< Repository root.
    std::vector<std::string> scanDirs{"src", "tools", "bench"};
    std::filesystem::path allowFile;         ///< Empty = no allowlist.
    RuleSet rules = RuleSet::All;            ///< Rule selection.
    /** Facts-only dirs (fastpath-parity test references). */
    std::vector<std::string> factsDirs{"tests"};
    /** Non-empty = report findings only for these repo-relative
     *  files (--diff mode); staleness checking is suppressed. */
    std::vector<std::string> onlyFiles;
    /** Demote stale allowlist entries from errors to warnings. */
    bool allowStale = false;
};

/** Aggregate result of a tree scan. */
struct LintReport
{
    std::vector<Diagnostic> unallowed; ///< Findings with no entry.
    std::vector<Diagnostic> allowed;   ///< Findings an entry covers.
    /** Allowlist parse errors; stale entries unless allowStale. */
    std::vector<Diagnostic> configErrors;
    /** Stale entries when allowStale is set (exit stays clean). */
    std::vector<Diagnostic> staleWarnings;
    std::size_t filesScanned = 0;

    /** True when nothing requires attention (exit status 0). */
    bool clean() const
    {
        return unallowed.empty() && configErrors.empty();
    }
};

/**
 * Scan every C++ source under `config.root / dir` for each scan dir,
 * run the selected per-file and cross-TU rules, apply the allowlist,
 * and report. Unknown scan dirs are skipped (the caller may pass a
 * superset of what a given checkout contains).
 */
LintReport runLint(const LintConfig &config);

/** Render the report as plain text diagnostics. */
std::string renderText(const LintReport &report, bool verbose);

/** Render the report as a JSON object. */
std::string renderJson(const LintReport &report);

/** Render the report as a SARIF 2.1.0 log (code-scanning upload). */
std::string renderSarif(const LintReport &report);

} // namespace xser::lint

#endif // XSER_TOOLS_LINT_LINT_HH
