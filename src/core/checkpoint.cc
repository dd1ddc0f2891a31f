/**
 * @file
 * Checkpoint envelope implementation.
 */

#include "core/checkpoint.hh"

#include "sim/bytes.hh"
#include "sim/hash.hh"
#include "sim/logging.hh"
#include "telemetry/metrics.hh"

namespace xser::core {

namespace {

constexpr std::string_view checkpointMagic("XSERCKPT", 8);
constexpr size_t headerBytes = 40;

} // namespace

std::string
sealCheckpoint(uint32_t session_index, uint64_t config_hash,
               std::string payload)
{
    ByteWriter header;
    header.raw(checkpointMagic);
    header.u32(checkpointVersion);
    header.u32(session_index);
    header.u64(config_hash);
    header.u64(payload.size());
    header.u64(fnv1a(payload));
    // The payload's buffer becomes the envelope: no second multi-MB
    // buffer when it has 40 bytes of headroom (the usual case).
    payload.insert(0, header.data());
    telemetry::count(telemetry::Counter::CheckpointsSealed);
    telemetry::count(telemetry::Counter::CheckpointSealedBytes,
                     payload.size());
    return payload;
}

CheckpointView
openCheckpoint(std::string_view bytes)
{
    CheckpointView view;
    if (bytes.size() < headerBytes) {
        view.error = msg("checkpoint too short: ", bytes.size(),
                         " bytes, header needs ", headerBytes);
        return view;
    }
    ByteReader header(bytes);
    if (header.raw(checkpointMagic.size()) != checkpointMagic) {
        view.error = "bad checkpoint magic (not an XSERCKPT blob)";
        return view;
    }
    const uint32_t version = header.u32();
    if (version != checkpointVersion) {
        view.error = msg("unsupported checkpoint version ", version,
                         " (expected ", checkpointVersion, ")");
        return view;
    }
    view.sessionIndex = header.u32();
    view.configHash = header.u64();
    const uint64_t payload_size = header.u64();
    const uint64_t checksum = header.u64();
    if (payload_size != header.remaining()) {
        view.error = msg("checkpoint payload size mismatch: header "
                         "declares ", payload_size, " bytes, blob has ",
                         header.remaining());
        return view;
    }
    const std::string_view payload = bytes.substr(headerBytes);
    const uint64_t actual = fnv1a(payload);
    if (actual != checksum) {
        view.error = msg("checkpoint payload checksum mismatch: "
                         "expected ", checksum, ", computed ", actual);
        return view;
    }
    view.ok = true;
    view.payload = payload;
    view.envelopeBytes = bytes.size();
    return view;
}

} // namespace xser::core
