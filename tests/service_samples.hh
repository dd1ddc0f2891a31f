/**
 * @file
 * Sample service messages shared by the protocol robustness tests and
 * the byte pins: realistic field values, every optional part populated.
 */

#ifndef XSER_TESTS_SERVICE_SAMPLES_HH
#define XSER_TESTS_SERVICE_SAMPLES_HH

#include <string>

#include "service/protocol.hh"

namespace xser::samples {

inline service::CampaignParams
sampleParams()
{
    service::CampaignParams params;
    params.scale = 0.07;
    params.seed = 0xdecafbadULL;
    params.replicates = 3;
    params.fastpath = false;
    params.traceBufferEvents = 4096;
    params.wantTrace = true;
    params.wantMetrics = true;
    params.configHash = 0x1234abcdULL;
    return params;
}

inline core::SessionResult
sampleResult()
{
    core::SessionResult result;
    result.point.name = "Vmin";
    result.point.pmdMillivolts = 890.0;
    result.point.socMillivolts = 920.0;
    result.point.frequencyHz = 2.4e9;
    result.beamFluxPerSecond = 1.5e6;
    result.runs = 17;
    result.fluence = 3.25e9;
    result.duration = 987654321;
    result.events.sdcSilent = 4;
    result.events.sdcNotified = 2;
    result.events.appCrash = 1;
    result.events.sysCrash = 1;
    result.edac[0] = {11, 1};
    result.edac[1] = {7, 0};
    result.upsetsDetected = 19;
    result.rawUpsetEvents = 23;
    result.totalSramBits = 1u << 22;
    result.avgPowerWatts = 12.5;
    core::WorkloadSessionStats workload;
    workload.name = "cg.S";
    workload.runs = 5;
    workload.fluence = 1e9;
    workload.duration = 1234;
    workload.upsetsDetected = 3;
    workload.events.sdcSilent = 1;
    result.perWorkload.push_back(workload);
    return result;
}

inline service::ShardResultMsg
sampleShardResult()
{
    service::ShardResultMsg msg;
    msg.campaignId = 77;
    msg.session = 2;
    msg.replicateBegin = 1;
    msg.replicateEnd = 3;
    msg.prefixTelemetry = "prefix-blob";
    for (uint32_t replicate = 1; replicate < 3; ++replicate) {
        service::UnitResultMsg unit;
        unit.replicate = replicate;
        unit.result = sampleResult();
        unit.traceEventCount = 12;
        unit.traceBytes = std::string("\x01\x02\x00raw", 6);
        msg.units.push_back(unit);
    }
    msg.shardTelemetry = "shard-blob";
    return msg;
}

inline service::SubmitMsg
sampleSubmit()
{
    service::SubmitMsg submit;
    submit.params = sampleParams();
    submit.tracePath = "out/campaign.xtrace";
    return submit;
}

inline service::ShardAssignMsg
sampleShardAssign()
{
    service::ShardAssignMsg assign;
    assign.campaignId = 5;
    assign.params = sampleParams();
    assign.session = 1;
    assign.replicateBegin = 0;
    assign.replicateEnd = 2;
    return assign;
}

/** A telemetry shard with every distribution, including out-of-range
 *  samples so the underflow/overflow transfer is exercised. */
inline telemetry::MetricShard
sampleMetricShard()
{
    telemetry::MetricShard shard;
    shard.counters[0] = 101;
    shard.counters[telemetry::numCounters - 1] = 7;
    for (size_t d = 0; d < telemetry::numDists; ++d) {
        Histogram &hist = shard.dists[d];
        hist.add(hist.low(), 3);
        hist.add(hist.low() - 1e9, 2);  // underflow
        hist.add(hist.high() + 1e9, 1); // overflow
    }
    shard.phaseSeconds[0] = 1.25;
    shard.unitsExecuted = 9;
    return shard;
}

} // namespace xser::samples

#endif // XSER_TESTS_SERVICE_SAMPLES_HH
