/**
 * @file
 * Campaign configuration factories.
 */

#include "core/beam_campaign.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace xser::core {

void
setFastPath(CampaignConfig &config, bool enabled)
{
    config.platform.memory.fastPath = enabled;
    for (auto &session : config.sessions)
        session.beam.skipAhead = enabled;
}

PrefixKey
campaignPrefixKey(const CampaignConfig &config)
{
    if (config.sessions.empty())
        fatal("campaign needs at least one session");
    PrefixKey key = prefixKeyOf(config.platform, config.sessions.front());
    const uint64_t hash = prefixKeyHash(key);
    for (size_t session = 1; session < config.sessions.size(); ++session)
        if (prefixKeyHash(prefixKeyOf(config.platform,
                                      config.sessions[session])) != hash)
            fatal(msg("session ", session,
                      " needs another golden prefix than session 0 "
                      "(workload set or quantum period differs); a "
                      "campaign runs from one prefix"));
    return key;
}

uint64_t
scaledEventTarget(uint64_t base, double scale)
{
    return std::max<uint64_t>(
        8, static_cast<uint64_t>(static_cast<double>(base) * scale));
}

namespace {

SessionConfig
paperSession(const volt::OperatingPoint &point, double max_fluence,
             uint64_t max_events, uint64_t seed, uint64_t index)
{
    SessionConfig config;
    config.point = point;
    config.maxFluence = max_fluence;
    config.maxErrorEvents = max_events;
    config.seed = seed ^ (0x9e3779b97f4a7c15ULL * (index + 1));
    return config;
}

} // namespace

CampaignConfig
BeamCampaign::paperCampaign(double scale, uint64_t seed)
{
    XSER_ASSERT(validCampaignScale(scale),
                "campaign scale out of range");
    const auto events = [scale](uint64_t base) {
        return scaledEventTarget(base, scale);
    };
    CampaignConfig config;
    // Sessions 1-3: the Section 3.5 rules (events or 1.5e11 fluence).
    // Session 4 was cut short by beam-time expiry at 1.48e10 n/cm^2.
    config.sessions.push_back(paperSession(
        volt::nominalPoint(), 1.49e11 * scale, events(100), seed, 0));
    config.sessions.push_back(paperSession(
        volt::safePoint(), 1.46e11 * scale, events(100), seed, 1));
    config.sessions.push_back(paperSession(
        volt::vminPoint(), 1.5e11 * scale, events(141), seed, 2));
    config.sessions.push_back(paperSession(
        volt::vmin900Point(), 1.48e10 * scale, events(100), seed, 3));
    return config;
}

CampaignConfig
BeamCampaign::campaign24GHz(double scale, uint64_t seed)
{
    CampaignConfig config = paperCampaign(scale, seed);
    config.sessions.pop_back();
    return config;
}

const char *
campaignParamsProblem(const CampaignParams &params)
{
    if (!validCampaignScale(params.scale))
        return "scale out of range";
    if (params.replicates == 0 ||
        params.replicates > maxCampaignReplicates)
        return "replicates out of range";
    if (params.wantTrace && params.traceBufferEvents == 0)
        return "zero-event trace buffer";
    return nullptr;
}

CampaignConfig
buildCampaign(const CampaignParams &params)
{
    CampaignConfig campaign =
        BeamCampaign::paperCampaign(params.scale, params.seed);
    setFastPath(campaign, params.fastpath);
    return campaign;
}

} // namespace xser::core
