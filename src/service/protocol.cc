/**
 * @file
 * Protocol message codecs: one field list per payload type.
 *
 * Each visit() below names every field of its payload once, with its
 * wire width; encode() runs it over a ByteWriter and decode() over a
 * ByteReader, so the two directions cannot drift apart. Range checks
 * refuse a loaded value right after reading it (Archive::reject); the
 * reader's poisoning covers truncation and hostile length prefixes.
 */

#include "service/protocol.hh"

#include "sim/bytes.hh"
#include "sim/logging.hh"

namespace xser::service {

namespace {

void
visit(Archive &ar, CampaignParams &params)
{
    ar.f64(params.scale);
    ar.u64(params.seed);
    ar.u32(params.replicates);
    ar.u8(params.fastpath);
    ar.u64(params.traceBufferEvents);
    ar.u8(params.wantTrace);
    ar.u8(params.wantMetrics);
    ar.u64(params.configHash);
    if (const char *problem = core::campaignParamsProblem(params))
        ar.reject(problem);
}

void
visit(Archive &ar, core::EventCounts &events)
{
    ar.u64(events.sdcSilent);
    ar.u64(events.sdcNotified);
    ar.u64(events.appCrash);
    ar.u64(events.sysCrash);
}

void
visit(Archive &ar, core::WorkloadSessionStats &stats)
{
    ar.str32(stats.name);
    ar.u64(stats.runs);
    ar.f64(stats.fluence);
    ar.u64(stats.duration);
    ar.u64(stats.upsetsDetected);
    visit(ar, stats.events);
}

void visit(Archive &ar, UnitResultMsg &unit);

/**
 * A u32-counted sequence. Loading stops at the first poisoned read, so
 * a hostile count cannot drive a huge allocation.
 */
template <class T>
void
visitSequence(Archive &ar, std::vector<T> &items)
{
    auto count = static_cast<uint32_t>(items.size());
    ar.u32(count);
    if (ar.loading())
        items.clear();
    for (uint32_t i = 0; i < count && ar.ok(); ++i)
        visit(ar, ar.loading() ? items.emplace_back() : items[i]);
}

void
visit(Archive &ar, core::SessionResult &result)
{
    ar.str32(result.point.name);
    ar.f64(result.point.pmdMillivolts);
    ar.f64(result.point.socMillivolts);
    ar.f64(result.point.frequencyHz);
    ar.f64(result.beamFluxPerSecond);
    ar.u64(result.runs);
    ar.f64(result.fluence);
    ar.u64(result.duration);
    visit(ar, result.events);
    auto levels = static_cast<uint32_t>(result.edac.size());
    ar.u32(levels);
    if (levels != result.edac.size())
        ar.reject("cache-level count skew");
    for (mem::EdacTally &tally : result.edac) {
        ar.u64(tally.corrected);
        ar.u64(tally.uncorrected);
    }
    ar.u64(result.upsetsDetected);
    ar.u64(result.rawUpsetEvents);
    ar.u64(result.totalSramBits);
    ar.f64(result.avgPowerWatts);
    visitSequence(ar, result.perWorkload);
}

void
visit(Archive &ar, HelloMsg &msg)
{
    ar.u8(msg.role);
    if (msg.role > PeerRole::Worker)
        ar.reject("unknown peer role");
}

void
visit(Archive &ar, SubmitMsg &msg)
{
    visit(ar, msg.params);
    ar.str32(msg.tracePath);
}

void
visit(Archive &ar, AcceptedMsg &msg)
{
    ar.u64(msg.campaignId);
    ar.u64(msg.totalUnits);
}

void
visit(Archive &ar, AttachMsg &msg)
{
    ar.u64(msg.campaignId);
}

void
visit(Archive &ar, ProgressMsg &msg)
{
    ar.u64(msg.campaignId);
    ar.u64(msg.done);
    ar.u64(msg.total);
}

void
visit(Archive &ar, ShardAssignMsg &msg)
{
    ar.u64(msg.campaignId);
    visit(ar, msg.params);
    ar.u32(msg.session);
    ar.u32(msg.replicateBegin);
    ar.u32(msg.replicateEnd);
    if (msg.replicateBegin >= msg.replicateEnd)
        ar.reject("empty replicate range");
}

void
visit(Archive &ar, UnitResultMsg &unit)
{
    ar.u32(unit.replicate);
    visit(ar, unit.result);
    ar.u64(unit.traceEventCount);
    ar.str64(unit.traceBytes);
}

void
visit(Archive &ar, ShardResultMsg &msg)
{
    ar.u64(msg.campaignId);
    ar.u32(msg.session);
    ar.u32(msg.replicateBegin);
    ar.u32(msg.replicateEnd);
    ar.str64(msg.prefixTelemetry);
    visitSequence(ar, msg.units);
    ar.str64(msg.shardTelemetry);
}

void
visit(Archive &ar, CampaignDoneMsg &msg)
{
    ar.u64(msg.campaignId);
    ar.u8(msg.ok);
    ar.str32(msg.error);
}

void
visit(Archive &ar, ArtifactChunkMsg &msg)
{
    ar.u64(msg.campaignId);
    ar.u8(msg.kind);
    if (msg.kind > ArtifactKind::Manifest)
        ar.reject("unknown kind");
    ar.u8(msg.last);
    ar.str64(msg.bytes);
}

void
visit(Archive &ar, ErrorMsgMsg &msg)
{
    ar.u32(msg.code);
    ar.str32(msg.text);
}

void
visit(Archive &ar, telemetry::MetricShard &shard)
{
    auto counters = static_cast<uint32_t>(shard.counters.size());
    ar.u32(counters);
    if (counters != shard.counters.size())
        ar.reject("counter count skew");
    for (uint64_t &counter : shard.counters)
        ar.u64(counter);
    auto dists = static_cast<uint32_t>(shard.dists.size());
    ar.u32(dists);
    if (dists != shard.dists.size())
        ar.reject("distribution count skew");
    for (Histogram &histogram : shard.dists) {
        double lo = histogram.low();
        double hi = histogram.high();
        auto bins = static_cast<uint32_t>(histogram.bins());
        ar.f64(lo);
        ar.f64(hi);
        ar.u32(bins);
        if (lo != histogram.low() || hi != histogram.high() ||
            bins != histogram.bins())
            ar.reject("histogram shape skew");
        if (!ar.ok())
            return;
        // Loading rebuilds by weighted adds at representative values:
        // bin counts at the bin's own lower edge, under/overflow just
        // outside the range. Integer counts transfer exactly, so the
        // merged histogram is identical to one recorded locally.
        for (uint32_t bin = 0; bin < bins; ++bin) {
            uint64_t weight = histogram.binCount(bin);
            ar.u64(weight);
            if (ar.loading() && weight != 0)
                histogram.add(histogram.binLow(bin), weight);
        }
        uint64_t underflow = histogram.underflow();
        ar.u64(underflow);
        if (ar.loading() && underflow != 0)
            histogram.add(histogram.low() - 1.0, underflow);
        uint64_t overflow = histogram.overflow();
        ar.u64(overflow);
        if (ar.loading() && overflow != 0)
            histogram.add(histogram.high(), overflow);
    }
    auto phases = static_cast<uint32_t>(shard.phaseSeconds.size());
    ar.u32(phases);
    if (phases != shard.phaseSeconds.size())
        ar.reject("phase count skew");
    for (double &seconds : shard.phaseSeconds)
        ar.f64(seconds);
    ar.u64(shard.unitsExecuted);
}

/** Prefix of every decode error, naming the payload type. */
template <class Msg>
constexpr const char *messageName = nullptr;
template <>
constexpr const char *messageName<HelloMsg> = "hello";
template <>
constexpr const char *messageName<SubmitMsg> = "submit";
template <>
constexpr const char *messageName<AcceptedMsg> = "accepted";
template <>
constexpr const char *messageName<AttachMsg> = "attach";
template <>
constexpr const char *messageName<ProgressMsg> = "progress";
template <>
constexpr const char *messageName<ShardAssignMsg> = "shard assign";
template <>
constexpr const char *messageName<ShardResultMsg> = "shard result";
template <>
constexpr const char *messageName<CampaignDoneMsg> = "campaign done";
template <>
constexpr const char *messageName<ArtifactChunkMsg> = "artifact chunk";
template <>
constexpr const char *messageName<ErrorMsgMsg> = "error message";
template <>
constexpr const char *messageName<telemetry::MetricShard> = "metric shard";

} // namespace

template <class Msg>
std::string
encode(const Msg &msg)
{
    ByteWriter writer;
    Archive ar(writer);
    // A saving archive only reads the fields it is handed.
    visit(ar, const_cast<Msg &>(msg));
    return writer.take();
}

template <class Msg>
bool
decode(const std::string &payload, Msg &out, std::string &error)
{
    ByteReader reader(payload);
    Archive ar(reader);
    visit(ar, out);
    const char *problem = nullptr;
    if (ar.rejection() != nullptr)
        problem = ar.rejection();
    else if (!reader.ok())
        problem = "truncated payload";
    else if (!reader.atEnd())
        problem = "trailing bytes after payload";
    if (problem == nullptr)
        return true;
    if (error.empty())
        error = msg(messageName<Msg>, ": ", problem);
    return false;
}

template std::string encode(const HelloMsg &);
template std::string encode(const SubmitMsg &);
template std::string encode(const AcceptedMsg &);
template std::string encode(const AttachMsg &);
template std::string encode(const ProgressMsg &);
template std::string encode(const ShardAssignMsg &);
template std::string encode(const ShardResultMsg &);
template std::string encode(const CampaignDoneMsg &);
template std::string encode(const ArtifactChunkMsg &);
template std::string encode(const ErrorMsgMsg &);
template std::string encode(const telemetry::MetricShard &);

template bool decode(const std::string &, HelloMsg &, std::string &);
template bool decode(const std::string &, SubmitMsg &, std::string &);
template bool decode(const std::string &, AcceptedMsg &, std::string &);
template bool decode(const std::string &, AttachMsg &, std::string &);
template bool decode(const std::string &, ProgressMsg &, std::string &);
template bool decode(const std::string &, ShardAssignMsg &,
                     std::string &);
template bool decode(const std::string &, ShardResultMsg &,
                     std::string &);
template bool decode(const std::string &, CampaignDoneMsg &,
                     std::string &);
template bool decode(const std::string &, ArtifactChunkMsg &,
                     std::string &);
template bool decode(const std::string &, ErrorMsgMsg &, std::string &);
template bool decode(const std::string &, telemetry::MetricShard &,
                     std::string &);

} // namespace xser::service
