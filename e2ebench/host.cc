/**
 * @file
 * HostInfo implementation.
 */

#include "host.hh"

#include <unistd.h>

#include <fstream>

namespace xser::bench {

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const size_t colon = line.find(':');
        if (colon == std::string::npos)
            break;
        const size_t start = line.find_first_not_of(" \t", colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
    }
    return "unknown";
}

} // namespace

HostInfo
hostInfo()
{
    HostInfo host;
    const long online = sysconf(_SC_NPROCESSORS_ONLN);
    host.cores = online > 0 ? static_cast<unsigned>(online) : 0;
    host.cpuModel = cpuModel();
    host.compiler = XSER_BENCH_COMPILER;
    host.buildType = XSER_BENCH_BUILD_TYPE;
    host.gitDescribe = XSER_BENCH_GIT_DESCRIBE;
    return host;
}

std::string
formatHostLine(const HostInfo &host)
{
    return "host: cores=" + std::to_string(host.cores) + " cpu=\"" +
           host.cpuModel + "\" compiler=\"" + host.compiler +
           "\" build=" + host.buildType + " git=" + host.gitDescribe;
}

} // namespace xser::bench
