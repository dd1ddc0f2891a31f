/**
 * @file
 * The reproduction scorecard: run the four-session campaign and
 * evaluate each of the paper's nine Observations automatically.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/observations.hh"

int
main()
{
    using namespace xser;
    bench::banner("Scorecard: the paper's nine Observations");

    const core::CampaignResult result{bench::runPaperSessions()};
    core::ObservationChecker checker(result);
    const auto verdicts = checker.evaluate();
    std::printf("%s\n", core::ObservationChecker::format(verdicts)
                            .c_str());
    std::printf("%zu / %zu observations hold at this session scale "
                "(small scales widen the Poisson noise on the\n"
                "low-count categories; XSER_FULL=1 evaluates at paper "
                "statistics).\n",
                core::ObservationChecker::countHolding(verdicts),
                verdicts.size());
    return 0;
}
