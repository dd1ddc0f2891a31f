/**
 * @file
 * The four benchmark workloads and the loop that measures them.
 *
 * A workload is a fixed-size iteration of real xser work (a replicated
 * campaign, a forked cliff sweep, a distributed campaign, an AVF
 * injection sweep). A run repeats iterations, each with its own seed
 * derived from --seed, until --seconds of measuring have passed, and
 * reports medians over iterations. Untraced runs report the end-to-end
 * metrics; traced runs pair every iteration with a twin that has the
 * program's telemetry on, alternating which goes first so host drift
 * hits both alike, and report per-layer metrics plus the overhead.
 */

#ifndef XSER_E2EBENCH_WORKLOADS_HH
#define XSER_E2EBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "record.hh"

namespace xser::bench {

/** Options of one `xser-bench run`. */
struct BenchOptions {
    std::string binDir;    ///< holds xser, xser-server, xser-worker, ...
    std::string workDir;   ///< scratch space, emptied by the caller
    uint64_t seed = 7;
    double seconds = 20.0; ///< measuring window per workload
    bool traced = false;
    bool smoke = false;    ///< toy sizes, no pinned digests
};

/** The workload names, in the order `run` executes them. */
const std::vector<std::string> &workloadNames();

/**
 * Per-layer readings from a run manifest (the program's own telemetry:
 * counters, phase seconds, the per-session headline), added to
 * `layers`. `warmup_runs` gives each session's warm-up workload runs
 * per unit, which the manifest does not count. False, with `failure`
 * set, when the manifest is unreadable.
 */
bool manifestLayers(const std::string &text,
                    const std::vector<double> &warmup_runs,
                    MetricValues &layers, std::string &failure);

/**
 * Run one workload (the name must be in workloadNames()). Checks run
 * on every iteration; a failed check or backend counts as a failed
 * attempt and is described in RunResult::failures.
 */
RunResult runWorkload(const std::string &name,
                      const BenchOptions &options);

} // namespace xser::bench

#endif // XSER_E2EBENCH_WORKLOADS_HH
