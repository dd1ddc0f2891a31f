/**
 * @file
 * Determinism tests for the parallel campaign engine: results must be
 * bit-identical for any worker count (1, 2, 8), with or without
 * replicates, and the merged replicate summary must not depend on how
 * units were scheduled across the pool.
 */

#include <gtest/gtest.h>

#include "core/beam_campaign.hh"
#include "core/fit_calculator.hh"
#include "core/parallel_campaign.hh"
#include "cpu/xgene2_platform.hh"

namespace xser::core {
namespace {

/**
 * The independent sequential reference: every session executed in
 * order by TestSession on a freshly constructed platform, with no
 * pool, checkpoint, or merge in between.
 */
CampaignResult
runSequentially(const CampaignConfig &config)
{
    CampaignResult result;
    for (const SessionConfig &session : config.sessions) {
        cpu::XGene2Platform platform(config.platform);
        result.sessions.push_back(
            TestSession(&platform, session).execute());
    }
    return result;
}

/** Fast-but-real campaign: the paper's four sessions, tiny targets. */
CampaignConfig
tinyCampaign(uint64_t seed = 0x5e5510ULL)
{
    CampaignConfig config = BeamCampaign::paperCampaign(0.02, seed);
    for (auto &session : config.sessions) {
        session.maxErrorEvents = 6;
        session.maxFluence = 2e9;
        session.warmupRounds = 2;
    }
    return config;
}

void
expectSessionsBitIdentical(const SessionResult &a, const SessionResult &b)
{
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.upsetsDetected, b.upsetsDetected);
    EXPECT_EQ(a.rawUpsetEvents, b.rawUpsetEvents);
    EXPECT_EQ(a.events.sdcSilent, b.events.sdcSilent);
    EXPECT_EQ(a.events.sdcNotified, b.events.sdcNotified);
    EXPECT_EQ(a.events.appCrash, b.events.appCrash);
    EXPECT_EQ(a.events.sysCrash, b.events.sysCrash);
    // Bit-exact, not approximately equal: the same unit must replay
    // the same arithmetic regardless of which thread ran it.
    EXPECT_EQ(a.fluence, b.fluence);
    EXPECT_EQ(a.duration, b.duration);
    EXPECT_EQ(a.avgPowerWatts, b.avgPowerWatts);
    const FitBreakdown fit_a = FitCalculator::breakdown(a);
    const FitBreakdown fit_b = FitCalculator::breakdown(b);
    EXPECT_EQ(fit_a.total.fit, fit_b.total.fit);
    EXPECT_EQ(fit_a.sdc.fit, fit_b.sdc.fit);
    ASSERT_EQ(a.perWorkload.size(), b.perWorkload.size());
    for (size_t w = 0; w < a.perWorkload.size(); ++w) {
        EXPECT_EQ(a.perWorkload[w].name, b.perWorkload[w].name);
        EXPECT_EQ(a.perWorkload[w].runs, b.perWorkload[w].runs);
        EXPECT_EQ(a.perWorkload[w].upsetsDetected,
                  b.perWorkload[w].upsetsDetected);
        EXPECT_EQ(a.perWorkload[w].fluence, b.perWorkload[w].fluence);
    }
}

void
expectCampaignsBitIdentical(const CampaignResult &a,
                            const CampaignResult &b)
{
    ASSERT_EQ(a.sessions.size(), b.sessions.size());
    for (size_t s = 0; s < a.sessions.size(); ++s) {
        SCOPED_TRACE("session " + std::to_string(s));
        expectSessionsBitIdentical(a.sessions[s], b.sessions[s]);
    }
}

void
expectAggregatesBitIdentical(const SessionAggregate &a,
                             const SessionAggregate &b)
{
    EXPECT_EQ(a.replicates, b.replicates);
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.fluence, b.fluence);
    EXPECT_EQ(a.events.sdcSilent, b.events.sdcSilent);
    EXPECT_EQ(a.events.sdcNotified, b.events.sdcNotified);
    EXPECT_EQ(a.events.appCrash, b.events.appCrash);
    EXPECT_EQ(a.events.sysCrash, b.events.sysCrash);
    EXPECT_EQ(a.upsetsDetected, b.upsetsDetected);
    EXPECT_EQ(a.rawUpsetEvents, b.rawUpsetEvents);
    EXPECT_EQ(a.fitTotal.count(), b.fitTotal.count());
    EXPECT_EQ(a.fitTotal.mean(), b.fitTotal.mean());
    EXPECT_EQ(a.fitTotal.variance(), b.fitTotal.variance());
    EXPECT_EQ(a.fitSdc.mean(), b.fitSdc.mean());
    EXPECT_EQ(a.upsetsPerMinute.mean(), b.upsetsPerMinute.mean());
}

/**
 * Shared fixture: execute the reference sweep once (1 worker, 2
 * replicates) and compare everything else against it.
 */
class ParallelDeterminism : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        ParallelRunConfig run;
        run.jobs = 1;
        run.replicates = 2;
        ParallelCampaignRunner runner(tinyCampaign(), run);
        reference_ = new ReplicatedCampaignResult(runner.executeAll());
    }

    static void
    TearDownTestSuite()
    {
        delete reference_;
        reference_ = nullptr;
    }

    static ReplicatedCampaignResult *reference_;
};

ReplicatedCampaignResult *ParallelDeterminism::reference_ = nullptr;

TEST_F(ParallelDeterminism, SingleWorkerMatchesSequentialBeamCampaign)
{
    // Replicate 0 of the parallel engine is the sequential campaign.
    expectCampaignsBitIdentical(runSequentially(tinyCampaign()),
                                reference_->replicates[0]);
}

TEST_F(ParallelDeterminism, FastPathOffBitIdentical)
{
    // The event-driven fast path (skip-ahead beam sampling, clean-word
    // read short-circuit, residency-filtered snoops) is default-on; the
    // golden gate for its equivalence contract is that disabling all of
    // it reproduces the reference sweep bit-for-bit.
    CampaignConfig config = tinyCampaign();
    setFastPath(config, false);
    ParallelRunConfig run;
    run.jobs = 1;
    run.replicates = 2;
    ParallelCampaignRunner runner(config, run);
    const ReplicatedCampaignResult sweep = runner.executeAll();
    ASSERT_EQ(sweep.replicates.size(), 2u);
    for (size_t r = 0; r < sweep.replicates.size(); ++r)
        expectCampaignsBitIdentical(reference_->replicates[r],
                                    sweep.replicates[r]);
    for (size_t s = 0; s < sweep.sessions.size(); ++s)
        expectAggregatesBitIdentical(reference_->sessions[s],
                                     sweep.sessions[s]);
}

TEST_F(ParallelDeterminism, TwoWorkersBitIdentical)
{
    ParallelRunConfig run;
    run.jobs = 2;
    run.replicates = 2;
    ParallelCampaignRunner runner(tinyCampaign(), run);
    const ReplicatedCampaignResult sweep = runner.executeAll();
    ASSERT_EQ(sweep.replicates.size(), 2u);
    for (size_t r = 0; r < sweep.replicates.size(); ++r)
        expectCampaignsBitIdentical(reference_->replicates[r],
                                    sweep.replicates[r]);
    for (size_t s = 0; s < sweep.sessions.size(); ++s)
        expectAggregatesBitIdentical(reference_->sessions[s],
                                     sweep.sessions[s]);
}

TEST_F(ParallelDeterminism, EightWorkersBitIdentical)
{
    // 8 workers over 8 units: every unit gets its own thread, so any
    // scheduling-order dependence would surface here.
    ParallelRunConfig run;
    run.jobs = 8;
    run.replicates = 2;
    ParallelCampaignRunner runner(tinyCampaign(), run);
    const ReplicatedCampaignResult sweep = runner.executeAll();
    for (size_t r = 0; r < sweep.replicates.size(); ++r)
        expectCampaignsBitIdentical(reference_->replicates[r],
                                    sweep.replicates[r]);
    for (size_t s = 0; s < sweep.sessions.size(); ++s)
        expectAggregatesBitIdentical(reference_->sessions[s],
                                     sweep.sessions[s]);
}

TEST_F(ParallelDeterminism, MergedSummaryIndependentOfWorkerCount)
{
    // The merged FIT summaries -- the numbers a sweep exists to
    // produce -- must match across worker counts, not just raw tallies.
    ParallelRunConfig run;
    run.jobs = 5;  // deliberately not a divisor of the unit count
    run.replicates = 2;
    ParallelCampaignRunner runner(tinyCampaign(), run);
    const ReplicatedCampaignResult sweep = runner.executeAll();
    for (size_t s = 0; s < sweep.sessions.size(); ++s) {
        const FitBreakdown expected = reference_->sessions[s].pooledFit();
        const FitBreakdown actual = sweep.sessions[s].pooledFit();
        EXPECT_EQ(expected.total.fit, actual.total.fit);
        EXPECT_EQ(expected.sdc.fit, actual.sdc.fit);
        EXPECT_EQ(expected.total.ci.lower, actual.total.ci.lower);
        EXPECT_EQ(expected.total.ci.upper, actual.total.ci.upper);
    }
}

TEST_F(ParallelDeterminism, DistinctReplicatesDiffer)
{
    // Replicates are independent Monte-Carlo repeats, not copies.
    const ReplicatedCampaignResult &sweep = *reference_;
    bool any_difference = false;
    for (size_t s = 0; s < sweep.replicates[0].sessions.size(); ++s) {
        if (sweep.replicates[0].sessions[s].rawUpsetEvents !=
            sweep.replicates[1].sessions[s].rawUpsetEvents)
            any_difference = true;
    }
    EXPECT_TRUE(any_difference);
}

TEST(ParallelReplicates, AggregatePoolsEveryReplicate)
{
    ParallelRunConfig run;
    run.jobs = 4;
    run.replicates = 3;
    CampaignConfig config = tinyCampaign();
    config.sessions.resize(2);  // 6 units
    ParallelCampaignRunner runner(config, run);
    const ReplicatedCampaignResult sweep = runner.executeAll();
    ASSERT_EQ(sweep.replicates.size(), 3u);
    ASSERT_EQ(sweep.sessions.size(), 2u);
    for (size_t s = 0; s < sweep.sessions.size(); ++s) {
        uint64_t runs = 0;
        double fluence = 0.0;
        EventCounts events;
        for (const auto &replicate : sweep.replicates) {
            runs += replicate.sessions[s].runs;
            fluence += replicate.sessions[s].fluence;
            events.merge(replicate.sessions[s].events);
        }
        EXPECT_EQ(sweep.sessions[s].replicates, 3u);
        EXPECT_EQ(sweep.sessions[s].runs, runs);
        EXPECT_EQ(sweep.sessions[s].fluence, fluence);
        EXPECT_EQ(sweep.sessions[s].events.total(), events.total());
        EXPECT_EQ(sweep.sessions[s].fitTotal.count(), 3u);
    }
}

TEST(ParallelRunner, ExecuteReturnsReplicateZeroOnly)
{
    ParallelRunConfig run;
    run.jobs = 3;
    run.replicates = 1;
    CampaignConfig config = tinyCampaign();
    config.sessions.resize(2);
    ParallelCampaignRunner runner(config, run);
    const ReplicatedCampaignResult sweep = runner.executeAll();
    ASSERT_EQ(sweep.replicates.size(), 1u);
    ASSERT_EQ(sweep.replicates[0].sessions.size(), 2u);
    expectCampaignsBitIdentical(runSequentially(config),
                                sweep.replicates[0]);
}

} // namespace
} // namespace xser::core
