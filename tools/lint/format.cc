/**
 * @file
 * Rule metadata and report renderers (text, JSON, SARIF 2.1.0). The
 * SARIF output is the minimal schema-valid subset GitHub code scanning
 * ingests: one run, driver rule metadata, and one result per finding
 * with a physical location. Output is deterministic: findings keep the
 * canonical (file, line, rule, token) order produced by the scan.
 */

#include <cstdio>
#include <sstream>

#include "lint/lint.hh"

namespace xser::lint {

std::string
Diagnostic::format() const
{
    std::ostringstream out;
    out << file << ':' << line << ": " << rule << ": " << message;
    return out.str();
}

const std::vector<RuleInfo> &
ruleTable()
{
    static const std::vector<RuleInfo> rules{
        {"wallclock",
         "No wall-clock or environment reads outside sanctioned sites; "
         "results must be a pure function of (seed, session, replicate).",
         false},
        {"raw-rng",
         "No raw standard RNG engines outside src/sim/rng; all streams "
         "come from xser::Rng / xser::deriveStreamSeed.",
         false},
        {"unordered-decl",
         "No unordered-container declarations in order-sensitive "
         "subsystems (src/{core,sim,rad,mem,trace}).",
         false},
        {"unordered-iter",
         "No iteration over unordered containers in order-sensitive "
         "subsystems; hash order must never feed a reduction.",
         false},
        {"header-guard",
         "Every header carries an include guard or #pragma once.",
         false},
        {"header-using-namespace",
         "Never 'using namespace' at header scope.", false},
        {"parallel-fanin",
         "No threading primitives or OpenMP outside the canonical "
         "fan-in in src/core/parallel_campaign.cc.",
         false},
        {"codec-confinement",
         "FNV-1a constants and shift-by-byte integer assembly appear in "
         "src/ only in the shared codec (src/sim/bytes.hh, "
         "src/sim/hash.hh).",
         false},
        {"layering",
         "The src/ include graph must respect the layer DAG (sim at "
         "the bottom, cli at the top) and contain no cycles.",
         true},
        {"rng-stream-discipline",
         "Every Rng construction in simulation code carries explicit "
         "seed provenance and is not hoisted out of session/replicate "
         "loops.",
         true},
        {"fp-reduction-order",
         "Floating-point accumulation never iterates a hash-ordered "
         "container outside the sanctioned Chan merge.",
         true},
        {"trace-schema-sync",
         "The EventType enum, numEventTypes, and every switch over the "
         "event set must agree.",
         true},
        {"fastpath-parity",
         "Every reference implementation in src/ has a fast "
         "counterpart and a differential test under tests/.",
         true},
        {"telemetry-purity",
         "Wall-clock headers live only under src/telemetry, and the RNG "
         "and byte codec (sim/rng, sim/bytes.hh, sim/hash.hh) never "
         "include a telemetry header.",
         true},
        {"net-confinement",
         "Socket/poll headers live only under src/net, and src/net "
         "never includes the RNG header (the byte codec and hash are "
         "allowed).",
         true},
    };
    return rules;
}

bool
knownRule(const std::string &rule)
{
    for (const RuleInfo &info : ruleTable())
        if (info.id == rule)
            return true;
    return false;
}

bool
ruleInSet(const std::string &rule, RuleSet set)
{
    if (set == RuleSet::All)
        return knownRule(rule);
    for (const RuleInfo &info : ruleTable())
        if (info.id == rule)
            return info.semantic == (set == RuleSet::Semantic);
    return false;
}

std::string
renderText(const LintReport &report, bool verbose)
{
    std::ostringstream out;
    for (const Diagnostic &diag : report.configErrors)
        out << diag.format() << '\n';
    for (const Diagnostic &diag : report.unallowed)
        out << diag.format() << '\n';
    for (const Diagnostic &diag : report.staleWarnings)
        out << "warning: " << diag.format() << '\n';
    if (verbose) {
        for (const Diagnostic &diag : report.allowed)
            out << "allowed: " << diag.format() << '\n';
    }
    out << "xser-lint: " << report.filesScanned << " files, "
        << report.unallowed.size() << " finding(s), "
        << report.allowed.size() << " allowed, "
        << report.configErrors.size() << " config error(s)"
        << (report.clean() ? " -- clean" : " -- FAIL") << '\n';
    return out.str();
}

namespace {

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 8);
    for (char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
appendDiagArray(std::ostringstream &out, const char *key,
                const std::vector<Diagnostic> &diags)
{
    out << "  \"" << key << "\": [";
    for (size_t i = 0; i < diags.size(); ++i) {
        const Diagnostic &diag = diags[i];
        out << (i == 0 ? "\n" : ",\n")
            << "    {\"file\": \"" << jsonEscape(diag.file)
            << "\", \"line\": " << diag.line << ", \"rule\": \""
            << jsonEscape(diag.rule) << "\", \"token\": \""
            << jsonEscape(diag.token) << "\", \"message\": \""
            << jsonEscape(diag.message) << "\"}";
    }
    out << (diags.empty() ? "]" : "\n  ]");
}

void
appendSarifResult(std::ostringstream &out, bool &first,
                  const Diagnostic &diag, const char *level)
{
    out << (first ? "\n" : ",\n");
    first = false;
    out << "        {\n"
        << "          \"ruleId\": \"" << jsonEscape(diag.rule)
        << "\",\n"
        << "          \"level\": \"" << level << "\",\n"
        << "          \"message\": {\"text\": \""
        << jsonEscape(diag.message) << "\"},\n"
        << "          \"locations\": [{\"physicalLocation\": "
        << "{\"artifactLocation\": {\"uri\": \""
        << jsonEscape(diag.file)
        << "\"}, \"region\": {\"startLine\": "
        << (diag.line > 0 ? diag.line : 1) << "}}}]\n"
        << "        }";
}

} // namespace

std::string
renderJson(const LintReport &report)
{
    std::ostringstream out;
    out << "{\n";
    appendDiagArray(out, "findings", report.unallowed);
    out << ",\n";
    appendDiagArray(out, "allowed", report.allowed);
    out << ",\n";
    appendDiagArray(out, "configErrors", report.configErrors);
    out << ",\n";
    appendDiagArray(out, "staleWarnings", report.staleWarnings);
    out << ",\n  \"filesScanned\": " << report.filesScanned
        << ",\n  \"clean\": " << (report.clean() ? "true" : "false")
        << "\n}\n";
    return out.str();
}

std::string
renderSarif(const LintReport &report)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"$schema\": \"https://raw.githubusercontent.com/"
           "oasis-tcs/sarif-spec/master/Schemata/"
           "sarif-schema-2.1.0.json\",\n"
        << "  \"version\": \"2.1.0\",\n"
        << "  \"runs\": [{\n"
        << "    \"tool\": {\"driver\": {\n"
        << "      \"name\": \"xser-lint\",\n"
        << "      \"version\": \"2.0.0\",\n"
        << "      \"informationUri\": "
           "\"https://example.invalid/xser-lint\",\n"
        << "      \"rules\": [";
    bool first_rule = true;
    for (const RuleInfo &info : ruleTable()) {
        out << (first_rule ? "\n" : ",\n");
        first_rule = false;
        out << "        {\"id\": \"" << info.id
            << "\", \"shortDescription\": {\"text\": \""
            << jsonEscape(info.description) << "\"}}";
    }
    // Config diagnostics use reserved rule ids outside ruleTable().
    for (const char *id : {"allowlist-format", "allowlist-stale"}) {
        out << ",\n        {\"id\": \"" << id
            << "\", \"shortDescription\": {\"text\": \"Allowlist "
            << (id[10] == 'f' ? "entries must parse and carry a "
                                "written justification."
                              : "entries must still match a finding; "
                                "stale entries are errors.")
            << "\"}}";
    }
    out << "\n      ]\n"
        << "    }},\n"
        << "    \"results\": [";
    bool first = true;
    for (const Diagnostic &diag : report.configErrors)
        appendSarifResult(out, first, diag, "error");
    for (const Diagnostic &diag : report.unallowed)
        appendSarifResult(out, first, diag, "error");
    for (const Diagnostic &diag : report.staleWarnings)
        appendSarifResult(out, first, diag, "warning");
    out << (first ? "]" : "\n    ]") << "\n  }]\n}\n";
    return out.str();
}

} // namespace xser::lint
