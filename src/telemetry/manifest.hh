/**
 * @file
 * The versioned run manifest: schema constants, the registry-to-JSON
 * emission helpers, and a paranoid JSON reader for the analysis side.
 *
 * Manifest layout (schema "xser-run-manifest", version 1):
 *
 *   {
 *     "schema": "xser-run-manifest",
 *     "schema_version": 1,
 *     "run": { tool, git_describe, config_hash, seed, ... },
 *     "counters": { <Counter names>: <merged totals> },
 *     "distributions": { <Dist names>: {lo, hi, bins, ...} },
 *     "headline": [ per-session FIT/DCS numbers ],
 *     "timing": { jobs, elapsed_seconds, phases, workers, ... }
 *   }
 *
 * Everything outside "timing" is a pure function of the campaign
 * configuration and seed -- bit-identical for any --jobs and across
 * repeated runs. "timing" quarantines every wall-clock reading (and
 * the worker count itself), so `xser-metrics diff` skips it by
 * default and manifests from jobs=1 and jobs=8 compare equal.
 *
 * The reader is deliberately strict and total: any truncated or
 * corrupted document yields `ok = false` with a positioned error, and
 * never a crash -- the same paranoid-decode posture as the net frame
 * decoder and the .xtrace reader.
 */

#ifndef XSER_TELEMETRY_MANIFEST_HH
#define XSER_TELEMETRY_MANIFEST_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/json.hh"
#include "telemetry/metrics.hh"

namespace xser::telemetry {

/** Schema identifier of the run manifest. */
extern const char *const manifestSchema;

/** Current manifest schema version. */
constexpr uint32_t manifestSchemaVersion = 1;

/** Top-level section whose contents are wall-clock dependent. */
extern const char *const manifestTimingSection;

/** Build-time `git describe` of this binary ("unknown" outside git). */
const char *gitDescribe();

/** Emit the schema preamble members (schema, schema_version). */
void writeSchemaPreamble(JsonWriter &json);

/** Emit the "counters" object from merged shard totals. */
void writeCounters(JsonWriter &json, const MetricShard &merged);

/**
 * Emit the "distributions" object (deterministic dists only; timing
 * dists belong in writeTiming's section).
 */
void writeDistributions(JsonWriter &json, const MetricShard &merged);

/**
 * Emit the "timing" object: worker count, elapsed wall-clock, phase
 * seconds, per-worker unit counts, and timing distributions.
 */
void writeTiming(JsonWriter &json, const MetricRegistry &registry,
                 unsigned jobs, double elapsed_seconds);

/** Parsed JSON value (document object model). */
struct JsonValue {
    enum class Kind { Null, Bool, Number, String, Object, Array };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    /** String payload, or the raw number token for exact compares. */
    std::string text;
    std::vector<std::pair<std::string, JsonValue>> members;
    std::vector<JsonValue> elements;

    /** Object member by key, or null when absent / not an object. */
    const JsonValue *find(const std::string &name) const;
};

/** Result of parsing a JSON document. */
struct ParsedJson {
    bool ok = false;
    std::string error;  ///< positioned message when !ok
    JsonValue root;
};

/**
 * Parse a complete JSON document. Strict: rejects trailing garbage,
 * unterminated tokens, and nesting deeper than 64 levels; never
 * crashes on arbitrary input.
 */
ParsedJson parseJson(const std::string &text);

} // namespace xser::telemetry

#endif // XSER_TELEMETRY_MANIFEST_HH
