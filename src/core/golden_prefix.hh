/**
 * @file
 * The golden prefix of a beam session as a pure function of an
 * explicit key (DESIGN.md section 10).
 *
 * Before the beam turns on, a session builds its benchmark suite,
 * records every workload's golden output beam-off, and flushes the
 * hierarchy. None of that depends on the session's seed, operating
 * point, scrub settings or stop criteria -- only on the platform, the
 * workload set and the quantum period -- so GoldenPrefix::run()
 * receives exactly those (a PrefixKey) and a platform built from it.
 * It advances no clock and runs no scrubber: it records the cycles
 * each quantum used instead. The session replays that timeline at its
 * own frequency and scrub settings at the seam (replay()), which
 * yields the clock position, the scrub state and the per-workload run
 * lengths a timed prefix would have left. One prefix therefore serves
 * every session and replicate that shares its key.
 */

#ifndef XSER_CORE_GOLDEN_PREFIX_HH
#define XSER_CORE_GOLDEN_PREFIX_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/control_pc.hh"
#include "cpu/xgene2_platform.hh"
#include "mem/scrubber.hh"
#include "sim/bytes.hh"
#include "workloads/workload.hh"

namespace xser::core {

/** Everything a golden prefix may read. */
struct PrefixKey {
    cpu::PlatformConfig platform;
    std::vector<std::string> workloadNames;
    uint64_t quantumAccesses = 0;  ///< hook period in accesses
};

/**
 * FNV-1a over every field the prefix reads -- the memory hierarchy's
 * geometry, latencies, protection and fast-path setting, the chip and
 * content seeds, the core front-end rates, the workload names and the
 * quantum period. Equal hashes mean interchangeable prefixes: a worker
 * keeps its golden image for as long as its campaigns' key hash stays
 * the one it captured the image under.
 */
uint64_t prefixKeyHash(const PrefixKey &key);

/**
 * A session's time-free golden prefix: the suite, the golden store,
 * and the quantum timeline.
 */
class GoldenPrefix
{
  public:
    /** A golden run's quanta in the timeline: [begin, end). */
    struct Span {
        uint64_t begin = 0;
        uint64_t end = 0;
    };

    /**
     * Run the prefix on `platform`, freshly built from key.platform:
     * set up every workload, record its golden output beam-off, and
     * flush the hierarchy. Each quantum drives the front end and
     * appends its cycles to the timeline; the clock stays put.
     */
    void run(cpu::XGene2Platform &platform, const PrefixKey &key);

    /**
     * Save a completed prefix, or -- on a loading archive, in place of
     * run() -- adopt one saved from a platform built from the same key
     * (a worker compares key hashes before it reuses an image). Walks
     * the platform, the workloads' bindings, the activity sum, the
     * golden store and the timeline.
     */
    void visit(Archive &ar, cpu::XGene2Platform &platform,
               const PrefixKey &key);

    /**
     * The seam: replay the timeline on `platform` at its current
     * operating point, advancing its clock and `scrubber` quantum by
     * quantum exactly as a timed prefix would have.
     *
     * @return Each golden run's simulated seconds, in suite order.
     */
    std::vector<double> replay(cpu::XGene2Platform &platform,
                               mem::Scrubber &scrubber) const;

    std::vector<std::unique_ptr<workloads::Workload>> &suite()
    {
        return suite_;
    }
    const ControlPc &control() const { return control_; }
    double activitySum() const { return activitySum_; }

  private:
    std::vector<std::unique_ptr<workloads::Workload>> suite_;
    ControlPc control_;
    double activitySum_ = 0.0;
    std::vector<uint64_t> quantumCycles_;
    std::vector<Span> goldenRuns_;
};

} // namespace xser::core

#endif // XSER_CORE_GOLDEN_PREFIX_HH
