/**
 * @file
 * Campaign configuration: an ordered set of test sessions, each run on
 * a freshly constructed platform (the board is power-cycled between
 * sessions), the factory for the paper's exact four-session campaign
 * (Table 2), and the parameters that rebuild that campaign anywhere --
 * in the CLI, in a worker process, or in the campaign service.
 * core::ParallelCampaignRunner executes what these build.
 */

#ifndef XSER_CORE_BEAM_CAMPAIGN_HH
#define XSER_CORE_BEAM_CAMPAIGN_HH

#include <cstdint>
#include <vector>

#include "core/test_session.hh"
#include "cpu/xgene2_platform.hh"

namespace xser::core {

/** Campaign parameters. */
struct CampaignConfig {
    cpu::PlatformConfig platform;
    std::vector<SessionConfig> sessions;
};

/**
 * Flip every event-driven fast path of a campaign at once: the beam's
 * skip-ahead sampler and the memory system's clean-word/clean-array
 * shortcuts. Both settings are observably equivalent by contract
 * (DESIGN.md section 8); campaigns run with them off only to prove it.
 */
void setFastPath(CampaignConfig &config, bool enabled);

/**
 * The one golden-prefix key (core/golden_prefix.hh) every session of
 * the campaign shares, so one sealed prefix serves all its units.
 * Fatal, naming the first session that differs from session 0, when
 * the sessions need two prefixes.
 */
PrefixKey campaignPrefixKey(const CampaignConfig &config);

/**
 * A session's error-event stop target: `base` events scaled by a
 * stop-criteria scale, floored at 8. A bare cast would truncate to zero
 * below a scale of 1/base, and a zero target ends the session before
 * its measured phase runs.
 */
uint64_t scaledEventTarget(uint64_t base, double scale);

/** Campaign outcome: one result per session, in order. */
struct CampaignResult {
    std::vector<SessionResult> sessions;

    bool operator==(const CampaignResult &) const = default;
};

/** Factories for the paper's campaign configurations. */
class BeamCampaign
{
  public:
    /**
     * The paper's four Table 2 sessions: 980/930/920 mV @ 2.4 GHz and
     * 790 mV @ 900 MHz, with the Section 3.5 stop criteria.
     *
     * @param scale Scales the stop criteria (fluence caps and event
     *        targets) to trade statistical tightness for wall time;
     *        1.0 reproduces the paper's targets. Must satisfy
     *        validCampaignScale().
     * @param seed Campaign seed.
     */
    static CampaignConfig paperCampaign(double scale = 1.0,
                                        uint64_t seed = 0x5e5510ULL);

    /** Only the three 2.4 GHz sessions (most figures use these). */
    static CampaignConfig campaign24GHz(double scale = 1.0,
                                        uint64_t seed = 0x5e5510ULL);
};

/** Most whole-campaign replicates one campaign may ask for. */
constexpr uint32_t maxCampaignReplicates = uint32_t(1) << 20;

/**
 * Largest stop-criteria scale: the paper's biggest event target (141)
 * times this still fits the uint64_t event targets of paperCampaign.
 */
constexpr double maxCampaignScale = 1e17;

/** True for a scale in (0, maxCampaignScale]; false for NaN. */
constexpr bool
validCampaignScale(double scale)
{
    return scale > 0.0 && scale <= maxCampaignScale;
}

/**
 * Everything needed to rebuild a paper campaign and run it: what
 * `xser campaign` and `xser-client run` parse from their options, and
 * what crosses the wire to the campaign service and its workers.
 * `configHash` is the campaignConfigHash of buildCampaign(*this); a
 * receiver whose own rebuild hashes differently must refuse the
 * campaign (build skew would silently break determinism).
 */
struct CampaignParams {
    double scale = 0.22;
    uint64_t seed = 0x5e5510ULL;
    uint32_t replicates = 1;
    uint64_t traceBufferEvents = 0;
    bool wantTrace = false;
    bool wantMetrics = false;
    uint64_t configHash = 0;
};

/**
 * Why `params` cannot describe a campaign -- a scale that fails
 * validCampaignScale(), replicates outside [1, maxCampaignReplicates],
 * or a trace request with a zero-event buffer -- or null when it can.
 */
const char *campaignParamsProblem(const CampaignParams &params);

/** Rebuild the paper campaign these parameters describe. */
CampaignConfig buildCampaign(const CampaignParams &params);

} // namespace xser::core

#endif // XSER_CORE_BEAM_CAMPAIGN_HH
