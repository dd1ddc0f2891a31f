/**
 * @file
 * Report generation: renders each of the paper's tables and figures
 * from campaign/session results. Bench binaries are thin wrappers over
 * these; tests validate the same structures the renderers consume.
 */

#ifndef XSER_CORE_CAMPAIGN_REPORT_HH
#define XSER_CORE_CAMPAIGN_REPORT_HH

#include <string>
#include <vector>

#include "core/test_session.hh"
#include "volt/power_model.hh"
#include "volt/vmin_characterizer.hh"

namespace xser::core {

/** Table 2: the beam test sessions. */
std::string formatTable2(const std::vector<SessionResult> &sessions);

/** Table 3: the voltage levels used in the experiments. */
std::string formatTable3();

/** Fig. 4: pfail(V) curves for both frequencies. */
std::string formatFig4(const volt::VminSweepResult &sweep_24ghz,
                       const volt::VminSweepResult &sweep_900mhz);

/** Fig. 5: upsets/min per benchmark per 2.4 GHz voltage. */
std::string formatFig5(const std::vector<SessionResult> &sessions_24ghz);

/** Fig. 6: upsets/min per cache level per 2.4 GHz voltage. */
std::string formatFig6(const std::vector<SessionResult> &sessions_24ghz);

/** Fig. 7: upsets/min per cache level at 790 mV @ 900 MHz. */
std::string formatFig7(const SessionResult &session_900mhz);

/** Fig. 8: failure-type percentages per 2.4 GHz voltage. */
std::string formatFig8(const std::vector<SessionResult> &sessions_24ghz);

/** Fig. 9: power vs upsets/min across all operating points. */
std::string formatFig9(const std::vector<SessionResult> &sessions);

/** Fig. 10: power savings vs susceptibility increase (vs nominal). */
std::string formatFig10(const std::vector<SessionResult> &sessions);

/** Fig. 11: FIT rates per category per 2.4 GHz voltage. */
std::string formatFig11(const std::vector<SessionResult> &sessions_24ghz);

/** Fig. 12: SDC FIT w/o vs w/ notification, 2.4 GHz voltages. */
std::string formatFig12(const std::vector<SessionResult> &sessions_24ghz);

/** Fig. 13: SDC FIT w/o vs w/ notification at 790 mV @ 900 MHz. */
std::string formatFig13(const SessionResult &session_900mhz);

struct CampaignParams;
struct ReplicatedCampaignResult;

/** The replicate-summary table printed when replicates > 1. */
std::string
formatReplicateSummary(const ReplicatedCampaignResult &sweep);

/**
 * The complete paper-campaign report: Table 2 through Fig. 13, plus
 * the replicate summary when replicates > 1.
 */
std::string
formatCampaignReport(const ReplicatedCampaignResult &sweep);

/**
 * What a paper campaign prints, exactly as `xser campaign` and
 * `xser-client run` show it: a "trace: N units -> path" line when
 * `params.wantTrace`, then formatCampaignReport(). The CLI and the
 * campaign service both render through this one function, which
 * keeps the two byte-identical -- the CI determinism gate `cmp`s
 * their outputs.
 */
std::string renderCampaignReport(const CampaignParams &params,
                                 const std::string &trace_path,
                                 const ReplicatedCampaignResult &sweep);

} // namespace xser::core

#endif // XSER_CORE_CAMPAIGN_REPORT_HH
