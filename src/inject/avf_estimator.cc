/**
 * @file
 * AvfEstimator implementation.
 */

#include "inject/avf_estimator.hh"

#include <cmath>

#include "inject/fault_injector.hh"
#include "sim/bytes.hh"
#include "sim/logging.hh"

namespace xser::inject {

double
perFlipAvf(unsigned corrupted, unsigned trials, unsigned flips_per_trial)
{
    double p = static_cast<double>(corrupted) / static_cast<double>(trials);
    if (p >= 1.0)
        p = 1.0 - 0.5 / static_cast<double>(trials);
    return 1.0 -
           std::pow(1.0 - p, 1.0 / static_cast<double>(flips_per_trial));
}

AvfEstimator::AvfEstimator(const AvfConfig &config) : config_(config)
{
    if (config_.trials == 0 || config_.flipsPerTrial == 0)
        fatal("AVF estimation needs positive trials and flips");
    if (config_.burstSize < 1 || config_.burstSize > maxBurstSize)
        fatal(msg("AVF burst size ", config_.burstSize,
                  " is outside [1, ", maxBurstSize, "]"));
    platform_ = std::make_unique<cpu::XGene2Platform>();
    workload_ = workloads::makeWorkload(config_.workloadName);
    workloads::RunContext ctx(&platform_->memory(),
                              workloads::RunContext::QuantumHook(),
                              1u << 20);
    workload_->setUp(ctx);
    const workloads::WorkloadOutput golden = workload_->run(ctx);
    XSER_ASSERT(golden.termination == workloads::Termination::Completed,
                "golden AVF run trapped");
    golden_ = golden.signature;

    ByteWriter writer;
    // Headroom past the largest state (CG, 27 MB) so the buffer never
    // regrows; a regrowth copy added 3.4 MB to the peak RSS of `xser
    // avf --workload MG` (x86-64 Linux). Untouched capacity costs
    // address space, not memory.
    writer.reserve(size_t(64) << 20);
    Archive archive(writer);
    platform_->visit(archive);
    workload_->visit(archive, platform_->memory());
    goldenState_ = writer.take();
}

void
AvfEstimator::rebuild()
{
    platform_->edac().clear();
    ByteReader reader(goldenState_);
    Archive archive(reader);
    platform_->visit(archive);
    workload_->visit(archive, platform_->memory());
    if (!reader.atEnd())
        fatal(reader.ok() ? "AVF golden state not fully consumed by restore"
                          : "AVF golden state underran during restore");
    ++rebuildCount_;
}

AvfResult
AvfEstimator::estimate(mem::CacheLevel level)
{
    AvfResult result;
    result.level = level;
    result.flipsPerTrial = config_.flipsPerTrial;

    // Target only this level's arrays.
    std::vector<mem::BeamTarget> targets;
    for (const auto &target : platform_->memory().beamTargets()) {
        if (target.level == level)
            targets.push_back(target);
    }
    XSER_ASSERT(!targets.empty(), "no arrays at requested level");

    for (unsigned trial = 0; trial < config_.trials; ++trial) {
        FaultInjector injector(
            targets,
            config_.seed ^ (0x9e3779b97f4a7c15ULL * (trial + 1)) ^
                rebuildCount_);
        for (unsigned flip = 0; flip < config_.flipsPerTrial; ++flip) {
            if (config_.burstSize > 1)
                injector.injectRandomBurst(config_.burstSize);
            else
                injector.injectRandom();
        }

        workloads::RunContext ctx(&platform_->memory(),
                                  workloads::RunContext::QuantumHook(),
                                  1u << 20);
        const workloads::WorkloadOutput output = workload_->run(ctx);
        ++result.trials;
        const bool corrupted =
            output.termination != workloads::Termination::Completed ||
            output.signature != golden_;
        if (corrupted) {
            ++result.corruptedTrials;
            // Corruption can linger in dirty cached state; restore so
            // the next trial starts pristine.
            rebuild();
        }
    }

    result.trialCorruptionRate =
        static_cast<double>(result.corruptedTrials) /
        static_cast<double>(result.trials);
    result.avf = perFlipAvf(result.corruptedTrials, result.trials,
                            config_.flipsPerTrial);
    return result;
}

double
AvfEstimator::projectFit(const AvfResult &result,
                         const rad::CrossSectionModel &xsection,
                         double volts, double flux_per_hour) const
{
    uint64_t bits = 0;
    for (const auto &target : platform_->memory().beamTargets()) {
        if (target.level == result.level)
            bits += target.array->totalBits();
    }
    const double sigma = xsection.bitCrossSection(result.level, volts);
    return static_cast<double>(bits) * sigma * flux_per_hour * 1e9 *
           result.avf;
}

} // namespace xser::inject
