/**
 * @file
 * The benchmark's metric catalogue and its result formats: the one-line
 * JSON result a run prints last, the JSON-lines record file `--out`
 * appends to, and `xser-bench compare` over two such files.
 *
 * The catalogue mirrors BENCHMARK.json (names, units, directions,
 * bounds); the bench.e2e_smoke ctest fails if the two disagree.
 */

#ifndef XSER_E2EBENCH_RECORD_HH
#define XSER_E2EBENCH_RECORD_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "host.hh"

namespace xser::telemetry {
struct JsonValue;
} // namespace xser::telemetry

namespace xser::bench {

/** One metric: name, unit, direction, and regression bound. */
struct MetricSpec {
    const char *name;
    const char *unit;
    bool higherIsBetter;
    /** Share of the baseline median it may worsen by; 0 = unbounded. */
    double bound;
};

/** End-to-end metrics, measured with tracing off. */
const std::vector<MetricSpec> &endToEndMetrics();

/** Per-layer metrics of a traced run's result line (BENCHMARK.json). */
const std::vector<MetricSpec> &layerMetrics();

/**
 * Per-layer readings printed as text only: the absolute seconds behind
 * the shares in layerMetrics(). A layer a workload never enters reads
 * exactly zero, so these stay out of the result line.
 */
const std::vector<MetricSpec> &layerDetailMetrics();

using MetricValues = std::map<std::string, double>;

/**
 * A metric value as a JSON number: whole values (counts) as plain
 * integers, the rest with every digit that round-trips.
 */
std::string number(double value);

/** Numeric member of a parsed JSON object; 0 when absent or not a number. */
double numberMember(const telemetry::JsonValue &object, const char *name);

/** Outcome of one workload's run. */
struct RunResult {
    std::string workload;
    uint64_t seed = 0;
    bool traced = false;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; ///< one line per failed check
    MetricValues metrics;              ///< every metric measured

    bool correct() const { return failed == 0 && failures.empty(); }
};

/**
 * The single-line JSON result: {"correct", "attempted", "failed",
 * "metrics"} with the end-to-end metrics (untraced) or the
 * layerMetrics() (traced), each as {"value", "unit"}.
 */
std::string resultLine(const RunResult &result);

/** One `--out` record: workload, seed, trace, host, and the result. */
std::string recordLine(const RunResult &result, const HostInfo &host);

/** Parse a record file; false with `error` set on malformed input. */
bool readRecords(const std::string &path, std::vector<RunResult> &runs,
                 std::string &error);

/**
 * Print, per (workload, metric), each set's median and quartiles and
 * the verdict for bounded metrics. Returns 1 when any is worse.
 */
int compareRecordFiles(const std::string &baseline_path,
                       const std::string &candidate_path);

} // namespace xser::bench

#endif // XSER_E2EBENCH_RECORD_HH
