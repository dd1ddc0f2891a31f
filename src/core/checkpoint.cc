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

} // namespace

std::string
sealCheckpoint(uint64_t key_hash, std::string payload)
{
    ByteWriter header;
    header.raw(checkpointMagic);
    header.u32(checkpointVersion);
    header.u64(key_hash);
    header.u64(payload.size());
    header.u64(fnv1a(payload));
    // The payload's buffer becomes the envelope: no second multi-MB
    // buffer when it has 36 bytes of headroom (the usual case).
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
    if (bytes.size() < checkpointHeaderBytes) {
        view.error = msg("checkpoint too short: ", bytes.size(),
                         " bytes, header needs ", checkpointHeaderBytes);
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
    view.keyHash = header.u64();
    const uint64_t payload_size = header.u64();
    const uint64_t checksum = header.u64();
    if (payload_size != header.remaining()) {
        view.error = msg("checkpoint payload size mismatch: header "
                         "declares ", payload_size, " bytes, blob has ",
                         header.remaining());
        return view;
    }
    const std::string_view payload = bytes.substr(checkpointHeaderBytes);
    const uint64_t actual = fnv1a(payload);
    if (actual != checksum) {
        view.error = msg("checkpoint payload checksum mismatch: "
                         "expected ", checksum, ", computed ", actual);
        return view;
    }
    view.ok = true;
    view.payload = payload;
    return view;
}

Checkpoint::Checkpoint(std::string envelope, uint64_t key_hash)
    : envelope_(std::make_shared<const std::string>(std::move(envelope))),
      keyHash_(key_hash)
{
    const telemetry::ScopedPhase timer(telemetry::Phase::SnapshotRestore);
    const CheckpointView view = openCheckpoint(*envelope_);
    if (!view.ok)
        fatal(msg("refusing checkpoint: ", view.error));
    if (view.keyHash != keyHash_)
        fatal(msg("refusing checkpoint: prefix key hash ", view.keyHash,
                  " is not the campaign's ", keyHash_));
}

} // namespace xser::core
