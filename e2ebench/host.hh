/**
 * @file
 * The host/build block every xser-bench result carries, so a number can
 * be traced to the machine and the build that produced it.
 */

#ifndef XSER_E2EBENCH_HOST_HH
#define XSER_E2EBENCH_HOST_HH

#include <string>

namespace xser::bench {

/** Where and from what a benchmark ran. */
struct HostInfo {
    unsigned cores = 0;       ///< online processors when the bench ran
    std::string cpuModel;     ///< /proc/cpuinfo "model name"
    std::string compiler;     ///< compiler id and version (configure time)
    std::string buildType;    ///< CMAKE_BUILD_TYPE (configure time)
    std::string gitDescribe;  ///< `git describe` at configure time
};

/** Read the host half now; the build half was fixed at configure time. */
HostInfo hostInfo();

/** One-line rendering: "host: cores=4 cpu=... compiler=... ...". */
std::string formatHostLine(const HostInfo &host);

} // namespace xser::bench

#endif // XSER_E2EBENCH_HOST_HH
