/**
 * @file
 * The xser-client campaign submitter: sends a campaign to an
 * xser-server, streams progress, and receives the finished artifacts
 * -- printing the server-rendered report verbatim to stdout and
 * writing the .xtrace / manifest files locally, so its observable
 * output is byte-identical to a local `xser campaign` run (DESIGN.md
 * section 12; the CI determinism gate cmp's exactly this).
 *
 * If the connection drops mid-campaign the client reconnects and
 * re-attaches by campaign id, restarting the artifact stream from
 * scratch (chunks are self-delimiting, so a partial stream is simply
 * discarded).
 */

#ifndef XSER_SERVICE_CLIENT_HH
#define XSER_SERVICE_CLIENT_HH

#include <cstdint>
#include <string>

#include "service/protocol.hh"

namespace xser::service {

/** What xser-client has been asked to do. */
enum class ClientCommand {
    Run,      ///< submit a campaign and wait for the artifacts
    Attach,   ///< watch an existing campaign by id
    Shutdown, ///< ask the server to drain and exit
};

/** xser-client configuration. */
struct ClientConfig {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    ClientCommand command = ClientCommand::Run;
    CampaignParams params;
    /** Trace path: sent in Submit (named in the report's trace line)
     * and written locally when trace bytes arrive. */
    std::string tracePath;
    /** Local path for the received run manifest. */
    std::string metricsPath;
    /** Campaign id for ClientCommand::Attach. */
    uint64_t campaignId = 0;
    /** Print the campaign id after Accepted and exit immediately. */
    bool detach = false;
    /** Live progress meter on stderr (TTY only, --quiet wins). */
    bool progress = false;
};

/** Run the client; returns the process exit code. */
int runClient(const ClientConfig &config);

} // namespace xser::service

#endif // XSER_SERVICE_CLIENT_HH
