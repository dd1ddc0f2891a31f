/**
 * @file
 * Ablation: protection schemes on the L2/L3 arrays (Design
 * Implication #1). Runs identical Vmin sessions with SECDED (the real
 * chip), parity-only, and no protection, and reports what the EDAC
 * machinery caught and what leaked into software.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/table_printer.hh"
#include "core/test_session.hh"
#include "cpu/xgene2_platform.hh"
#include "volt/operating_point.hh"

namespace {

struct AblationRow {
    const char *label;
    xser::mem::Protection protection;
};

} // namespace

int
main()
{
    using namespace xser;

    const double scale = bench::campaignScaleFromEnv(bench::defaultScale);
    bench::banner("Ablation: L2/L3 protection scheme (at Vmin)", scale);
    const AblationRow rows[] = {
        {"SECDED (X-Gene 2)", mem::Protection::Secded},
        {"parity-only", mem::Protection::Parity},
        {"unprotected", mem::Protection::None},
    };

    core::TablePrinter table({"L2/L3 protection", "corrected",
                              "uncorrected", "silent escapes",
                              "SDCs (organic)", "upsets/min"});
    for (const AblationRow &row : rows) {
        cpu::PlatformConfig platform_config;
        platform_config.memory.l2Protection = row.protection;
        platform_config.memory.l3Protection = row.protection;
        cpu::XGene2Platform platform(platform_config);

        core::SessionConfig session_config;
        session_config.point = volt::vminPoint();
        session_config.maxErrorEvents = core::scaledEventTarget(141, scale);
        session_config.maxFluence = 1.5e11 * scale;
        session_config.seed = 0xab1a7e;
        core::TestSession session(&platform, session_config);
        const core::SessionResult result = session.execute();

        // Ground-truth silent escapes from the array counters.
        uint64_t escapes = 0;
        for (const auto &target : platform.memory().beamTargets()) {
            escapes += target.array->counters().silentEscapes;
            escapes += target.array->counters().miscorrections;
        }
        // Organic SDCs are folded into result.events already.

        table.addRow({row.label,
                      std::to_string(
                          result.edac[2].corrected +
                          result.edac[3].corrected),
                      std::to_string(
                          result.edac[2].uncorrected +
                          result.edac[3].uncorrected),
                      std::to_string(escapes),
                      std::to_string(result.events.sdcTotal()),
                      core::TablePrinter::fmt(result.upsetsPerMinute(),
                                              2)});
    }
    std::printf("%s\n", table.toString().c_str());
    std::printf(
        "expected shape: SECDED corrects nearly everything (few UE,\n"
        "near-zero escapes); parity-only detects but cannot correct\n"
        "(UE column explodes); unprotected leaks every latent flip it\n"
        "reads as silent corruption. This is Design Implication #1:\n"
        "parity+SECDED as deployed are sufficient even at Vmin.\n");
    return 0;
}
