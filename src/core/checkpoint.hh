/**
 * @file
 * Checkpoint envelope: the versioned container around a golden
 * prefix snapshot (DESIGN.md section 10).
 *
 * A campaign takes one snapshot of its prefix key
 * (core/golden_prefix.hh) and forks every unit from it. The envelope
 * makes that blob self-describing and refusable:
 *
 *     bytes 0-7    magic "XSERCKPT"
 *     bytes 8-11   format version (u32, little-endian)
 *     bytes 12-19  prefix key hash (u64)
 *     bytes 20-27  payload size in bytes (u64)
 *     bytes 28-35  FNV-1a checksum of the payload (u64)
 *     bytes 36-    payload (TestSession::visitPrefix stream)
 *
 * openCheckpoint() validates every field before exposing the payload
 * and reports failures gracefully ({ok, error}, mirroring the .xtrace
 * reader): a checkpoint crossing a process or version boundary is
 * external input. Each process opens an envelope once, right after
 * sealing it (core::ShardExecutor::openPrefix, which also checks the
 * key hash), and restores every unit from that one verified view.
 * Once the checksum has passed, a payload that does not load cleanly
 * indicates a logic bug, and the restoring caller
 * (core::ShardExecutor) fails hard.
 */

#ifndef XSER_CORE_CHECKPOINT_HH
#define XSER_CORE_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace xser::core {

/**
 * Envelope format version; bump on any payload layout change. Part of
 * every prefix key hash, so a bump also re-keys every prefix.
 */
inline constexpr uint32_t checkpointVersion = 2;

/**
 * Wrap a prefix snapshot payload in the envelope.
 *
 * @param key_hash prefixKeyHash() of the prefix's key.
 * @param payload TestSession::visitPrefix stream (its buffer becomes
 *        the envelope).
 */
std::string sealCheckpoint(uint64_t key_hash, std::string payload);

/** Result of opening an envelope: a validated view into its bytes. */
struct CheckpointView {
    bool ok = false;
    std::string error;           ///< set when !ok
    uint64_t keyHash = 0;
    std::string_view payload;    ///< into the caller's buffer
    uint64_t envelopeBytes = 0;  ///< whole envelope, header included
};

/**
 * Validate an envelope (magic, version, sizes, payload checksum) and
 * return a view of its payload. The view aliases `bytes`, which must
 * outlive it. Never fatals: malformed input yields {ok=false, error}.
 */
CheckpointView openCheckpoint(std::string_view bytes);

} // namespace xser::core

#endif // XSER_CORE_CHECKPOINT_HH
