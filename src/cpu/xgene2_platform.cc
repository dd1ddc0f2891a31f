/**
 * @file
 * XGene2Platform implementation.
 */

#include "cpu/xgene2_platform.hh"

#include <sstream>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace xser::cpu {

XGene2Platform::XGene2Platform(const PlatformConfig &config)
    : config_(config), edac_(false),
      pmd_(volt::makePmdDomain()), soc_(volt::makeSocDomain()),
      clock_(2.4e9), timing_(config.timing),
      variation_(config.memory.numCores, config.processSigmaVolts,
                 config.chipSeed),
      power_(config.power)
{
    memory_ = std::make_unique<mem::MemorySystem>(config_.memory, &edac_);
    memory_->setTimeSource(clock_.nowPtr());

    Rng chip_rng(config_.chipSeed);
    for (unsigned id = 0; id < config_.memory.numCores; ++id) {
        CoreConfig core_config = config_.coreTemplate;
        core_config.id = id;
        cores_.push_back(std::make_unique<Core>(
            core_config, memory_.get(), chip_rng.fork(msg("core.", id))));
    }
}

Core &
XGene2Platform::core(unsigned index)
{
    XSER_ASSERT(index < cores_.size(), "core index out of range");
    return *cores_[index];
}

void
XGene2Platform::applyOperatingPoint(const volt::OperatingPoint &point)
{
    pmd_.setMillivolts(point.pmdMillivolts);
    soc_.setMillivolts(point.socMillivolts);
    clock_.setFrequency(point.frequencyHz);
}

volt::OperatingPoint
XGene2Platform::operatingPoint() const
{
    volt::OperatingPoint point;
    point.pmdMillivolts = pmd_.millivolts();
    point.socMillivolts = soc_.millivolts();
    point.frequencyHz = clock_.frequency();
    point.name = point.label();
    return point;
}

void
XGene2Platform::setWorkloadFootprint(size_t code_words,
                                     size_t tlb_entries)
{
    for (auto &core : cores_)
        core->setFootprint(code_words, tlb_entries);
}

void
XGene2Platform::driveFrontEnd(uint64_t accesses_per_core)
{
    for (auto &core : cores_)
        core->driveQuantum(accesses_per_core);
}

Tick
XGene2Platform::advanceForCycles(uint64_t total_cycles)
{
    // The workload's accesses are issued from all cores concurrently;
    // wall time is the per-core share of the total cycle cost.
    const uint64_t per_core =
        total_cycles / std::max<unsigned>(1, numCores());
    const Tick elapsed = per_core * clock_.period();
    clock_.advance(elapsed);
    return elapsed;
}

double
XGene2Platform::currentPowerWatts(double activity) const
{
    volt::OperatingPoint point;
    point.pmdMillivolts = pmd_.millivolts();
    point.socMillivolts = soc_.millivolts();
    point.frequencyHz = clock_.frequency();
    return power_.totalWatts(point, activity);
}

void
XGene2Platform::visit(Archive &ar)
{
    Tick now = clock_.now();
    ar.u64(now);
    if (ar.loading()) {
        clock_.setNow(now);
        edac_.clear();
    }
    uint64_t cores = cores_.size();
    ar.u64(cores);
    XSER_ASSERT(cores == cores_.size(),
                "snapshot core count mismatch restoring platform");
    for (auto &core : cores_)
        core->visit(ar);
    memory_->visit(ar);
}

std::string
XGene2Platform::specTable() const
{
    const auto &memcfg = config_.memory;
    std::ostringstream os;
    os << "Parameter                 | X-Gene 2 Server CPU (simulated)\n"
       << "--------------------------+--------------------------------\n"
       << "ISA                       | Armv8 (AArch64)\n"
       << "Pipeline / CPU Cores      | 64-bit OoO (4-issue) / "
       << memcfg.numCores << "\n"
       << "Clock Frequency           | " << clock_.frequency() / 1e9
       << " GHz\n"
       << "D/I TLBs                  | " << memcfg.tlbWordsPerCore
       << " entries per core (Parity)\n"
       << "L1 Instruction Cache      | " << memcfg.l1iBytes / 1024
       << " KB per core (Parity)\n"
       << "L1 Data Cache             | " << memcfg.l1dBytes / 1024
       << " KB Write-Through per core (Parity)\n"
       << "L2 Cache                  | " << memcfg.l2Bytes / 1024
       << " KB Write-Back per pair of cores (SECDED)\n"
       << "L3 Cache                  | "
       << memcfg.l3Bytes / (1024 * 1024)
       << " MB Write-Back Shared (SECDED)\n"
       << "TDP / Technology          | 35 W / 28 nm\n"
       << "PMD/SoC Nominal Voltage   | " << pmd_.nominalMillivolts()
       << " mV / " << soc_.nominalMillivolts() << " mV\n";
    return os.str();
}

} // namespace xser::cpu
