/**
 * @file
 * Declaration/flow fact layer and whole-tree semantic rules.
 *
 * `extractFacts` distills one translation unit's tokens into the small
 * record the cross-TU rules need: the quoted include list
 * (for the layer DAG and cycle detection), reference-implementation
 * identifiers (for fast-path parity), and the trace event schema facts
 * (enum definition, `numEventTypes` pin, and every `case EventType::`
 * label grouped by enclosing switch). The tree rules then run over the
 * collected facts of every scanned file:
 *
 *  - layering: the repo-relative include graph over `src/` must respect
 *    the layer DAG (sim at the bottom; cli at the top) and contain no
 *    include cycles -- violations report the offending include chain;
 *  - trace-schema-sync: the `EventType` enum, the `numEventTypes`
 *    constant the varint writer/reader and xser-trace tables iterate,
 *    and every switch over `EventType` must cover the same event set;
 *  - fastpath-parity: every `*Reference` / `*_reference` implementation
 *    in `src/` must sit next to its fast counterpart and be exercised
 *    by a differential test under `tests/`;
 *  - telemetry-purity: wall-clock headers stay confined to
 *    `src/telemetry/`, and RNG/byte-codec code never includes telemetry.
 */

#ifndef XSER_TOOLS_LINT_FACTS_HH
#define XSER_TOOLS_LINT_FACTS_HH

#include <map>
#include <string>
#include <vector>

#include "lint/lint.hh"

namespace xser::lint {

/** One `#include "..."` (or `<...>`) directive. */
struct IncludeFact
{
    int line = 0;
    std::string target; ///< Path exactly as written in the directive.
    bool quoted = false;
};

/** One reference-implementation identifier seen in a file. */
struct ReferenceFact
{
    int line = 0;
    std::string name;        ///< e.g. "parity64Reference"
    bool basePresent = false; ///< Fast counterpart named in same file.
};

/** One `case EventType::X` label, grouped by enclosing switch. */
struct CaseFact
{
    int switchIndex = 0; ///< Ordinal of the enclosing switch in the TU.
    int line = 0;
    std::string name; ///< Enumerator, e.g. "Injection".
};

/** One enumerator of `enum class EventType`. */
struct EnumeratorFact
{
    int line = 0;
    std::string name;
    long value = -1;
};

/** Cross-TU facts of one translation unit. */
struct FileFacts
{
    std::string path; ///< Repo-relative path with forward slashes.
    std::vector<IncludeFact> includes;
    std::vector<ReferenceFact> references;
    std::vector<CaseFact> eventCases;
    std::vector<EnumeratorFact> eventEnum; ///< Empty unless defined here.
    long numEventTypes = -1; ///< Value of the constant; -1 when absent.
    int numEventTypesLine = 0;
};

/** Extract the cross-TU facts of one in-memory translation unit. */
FileFacts extractFacts(const std::string &rel_path,
                       const std::string &content);

/** Adjacency-list graph keyed by node name (deterministic order). */
using Graph = std::map<std::string, std::vector<std::string>>;

/**
 * Every distinct elementary cycle reachable in `graph`, each reported
 * once, rotated so its lexicographically smallest node comes first and
 * without repeating that node at the end. Deterministic for a given
 * graph. Intended for include graphs (small, few cycles), not for
 * dense graphs with combinatorially many cycles.
 */
std::vector<std::vector<std::string>> findCycles(const Graph &graph);

/** Layer rank of a repo-relative path under src/, or -1. */
int layerRank(const std::string &path);

/** Rule "layering": upward/cross edges and include cycles. */
std::vector<Diagnostic> checkLayering(const std::vector<FileFacts> &facts);

/** Rule "trace-schema-sync": event enum vs counts vs switches. */
std::vector<Diagnostic>
checkTraceSchemaSync(const std::vector<FileFacts> &facts);

/**
 * Rule "fastpath-parity". `facts` covers the scanned tree (reference
 * impls are required under src/); `test_facts` covers tests/ and
 * provides the differential-test references.
 */
std::vector<Diagnostic>
checkFastpathParity(const std::vector<FileFacts> &facts,
                    const std::vector<FileFacts> &test_facts);

/**
 * Rule "telemetry-purity": wall-clock headers appear only under
 * src/telemetry/, and the determinism-critical files (src/sim/rng.*,
 * src/sim/bytes.hh, src/sim/hash.hh) never include a telemetry header.
 */
std::vector<Diagnostic>
checkTelemetryPurity(const std::vector<FileFacts> &facts);

/**
 * Rule "net-confinement": OS socket/poll headers appear only under
 * src/net/, and src/net never includes the RNG header (transport must
 * stay below the simulation in the layer DAG; the shared byte codec
 * and hash are allowed).
 */
std::vector<Diagnostic>
checkNetConfinement(const std::vector<FileFacts> &facts);

} // namespace xser::lint

#endif // XSER_TOOLS_LINT_FACTS_HH
