/**
 * @file
 * Statistical AVF estimation via fault injection (Design Implication
 * #3 of the paper): the probability that a bit flip in a given
 * structure corrupts the program output. Combined with a structure's
 * raw voltage-dependent cross section this yields per-structure FIT
 * estimates at any supply voltage, enabling the design-space
 * exploration the paper recommends:
 *
 *   FIT(structure, V) = bits * sigma_bit(V) * flux_ref * 1e9 * AVF
 *
 * Method: per trial, flip `flips_per_trial` uniformly random bits in
 * the target structure's arrays, execute one run, and compare against
 * the golden output. With per-flip corruption probability a and k
 * flips per trial, P(trial corrupts) = 1 - (1 - a)^k, so
 * a = 1 - (1 - p)^(1/k). Multi-flip trials buy statistics when a is
 * small (as it is: most flips are corrected by ECC or land in dead
 * data); the estimator inverts the compounding exactly.
 */

#ifndef XSER_INJECT_AVF_ESTIMATOR_HH
#define XSER_INJECT_AVF_ESTIMATOR_HH

#include <memory>
#include <string>
#include <vector>

#include "cpu/xgene2_platform.hh"
#include "rad/cross_section_model.hh"
#include "workloads/workload.hh"

namespace xser::inject {

/** Result of one AVF estimation. */
struct AvfResult {
    mem::CacheLevel level;
    unsigned trials = 0;
    unsigned corruptedTrials = 0;   ///< output mismatch or trap
    unsigned flipsPerTrial = 0;
    double trialCorruptionRate = 0.0;  ///< corrupted / trials
    double avf = 0.0;                  ///< per-flip corruption prob.
};

/** Estimation parameters. */
struct AvfConfig {
    std::string workloadName = "EP";  ///< small setup, fast runs
    unsigned trials = 60;
    unsigned flipsPerTrial = 48;
    /**
     * Cluster size per injection, in [1, maxBurstSize]: 1 =
     * independent single flips (the ECC-protected arrays show ~zero
     * AVF, the paper's Design Implication #1); >= 2 studies the MBU
     * channel that defeats SECDED in non-interleaved arrays (Section
     * 6.2).
     */
    unsigned burstSize = 1;
    uint64_t seed = 0xa7fULL;
};

/**
 * Widest burst: one stored word of the narrowest array (a burst wider
 * than its word would flip bits back).
 */
constexpr unsigned maxBurstSize = 64;

/**
 * Per-flip corruption probability from a trial outcome: with p =
 * corrupted / trials and k flips per trial, a = 1 - (1 - p)^(1/k). A
 * saturated estimate (every trial corrupted) has no finite inversion;
 * it reports the Jeffreys-adjusted bound p = 1 - 0.5 / trials instead.
 */
double perFlipAvf(unsigned corrupted, unsigned trials,
                  unsigned flips_per_trial);

/**
 * Runs the injection campaign for one structure class on one platform,
 * built once: construct, set up the workload, record its golden run,
 * and keep the post-run state as an in-memory snapshot. Corruption can
 * linger in cached state, so every corrupting trial is followed by
 * rebuild(), an in-place load of that snapshot (DESIGN.md section 10).
 */
class AvfEstimator
{
  public:
    explicit AvfEstimator(const AvfConfig &config = {});

    /** Estimate the AVF of one cache level's arrays. */
    AvfResult estimate(mem::CacheLevel level);

    /**
     * Return the platform and workload to the golden post-run state:
     * clear the EDAC reporter (the only platform state off the
     * visit() walk) and load the snapshot in place.
     */
    void rebuild();

    /** The platform trials run on. */
    cpu::XGene2Platform &platform() { return *platform_; }

    /** The workload trials run. */
    workloads::Workload &workload() { return *workload_; }

    /**
     * Project a structure's FIT at a supply voltage from an AVF
     * result (Eq. 2 with the AVF derating).
     *
     * @param result A prior estimate for the structure.
     * @param xsection Voltage-dependent cross sections.
     * @param volts Supply voltage of the structure's domain.
     * @param flux_per_hour Reference flux (default NYC sea level).
     */
    double projectFit(const AvfResult &result,
                      const rad::CrossSectionModel &xsection,
                      double volts, double flux_per_hour = 13.0) const;

  private:
    AvfConfig config_;
    std::unique_ptr<cpu::XGene2Platform> platform_;
    std::unique_ptr<workloads::Workload> workload_;
    std::vector<uint64_t> golden_;
    std::string goldenState_;  ///< platform + workload after golden run
    /** Builds plus rebuilds so far; mixed into the injector seeds. */
    uint64_t rebuildCount_ = 1;
};

} // namespace xser::inject

#endif // XSER_INJECT_AVF_ESTIMATOR_HH
