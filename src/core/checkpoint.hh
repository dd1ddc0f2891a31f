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
 *     bytes 36-    payload (the prefix's golden image, sim/golden_image.hh)
 *
 * openCheckpoint() validates every field before exposing the payload
 * and reports failures gracefully ({ok, error}, mirroring the .xtrace
 * reader): a checkpoint crossing a process or version boundary is
 * external input.
 */

#ifndef XSER_CORE_CHECKPOINT_HH
#define XSER_CORE_CHECKPOINT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace xser::core {

/**
 * Envelope format version; bump on any payload layout change. Part of
 * every prefix key hash, so a bump also re-keys every prefix.
 */
inline constexpr uint32_t checkpointVersion = 2;

/** Envelope header size: the payload starts at this offset. */
inline constexpr size_t checkpointHeaderBytes = 36;

/**
 * Wrap a prefix snapshot payload in the envelope.
 *
 * @param key_hash prefixKeyHash() of the prefix's key.
 * @param payload The prefix's golden image (its buffer becomes the
 *        envelope).
 */
std::string sealCheckpoint(uint64_t key_hash, std::string payload);

/** Result of opening an envelope: a validated view into its bytes. */
struct CheckpointView {
    bool ok = false;
    std::string error;           ///< set when !ok
    uint64_t keyHash = 0;
    std::string_view payload;    ///< into the caller's buffer
};

/**
 * Validate an envelope (magic, version, sizes, payload checksum) and
 * return a view of its payload. The view aliases `bytes`, which must
 * outlive it. Never fatals: malformed input yields {ok=false, error}.
 */
CheckpointView openCheckpoint(std::string_view bytes);

/**
 * A sealed envelope, opened once: the value every unit restores from.
 * It shares the envelope and derives the payload from it on each
 * access, so no unit can be handed an unopened or dangling view. A
 * platform loaded from the payload borrows its DRAM pages and holds a
 * share of the envelope (DESIGN.md section 10), so the bytes outlive
 * this value if a platform does.
 */
class Checkpoint
{
  public:
    /**
     * Open `envelope` (openCheckpoint) and require its key hash to be
     * `key_hash`; fatal "refusing checkpoint: <error>" otherwise. Timed
     * as phase SnapshotRestore on the caller's active shard.
     */
    Checkpoint(std::string envelope, uint64_t key_hash);

    uint64_t keyHash() const { return keyHash_; }
    uint64_t envelopeBytes() const { return envelope_->size(); }

    /** The envelope's bytes: the owner of payload(). */
    const std::shared_ptr<const std::string> &
    envelope() const
    {
        return envelope_;
    }

    /** The verified payload: the prefix's golden image. */
    std::string_view
    payload() const
    {
        return std::string_view(*envelope_).substr(checkpointHeaderBytes);
    }

  private:
    std::shared_ptr<const std::string> envelope_;
    uint64_t keyHash_;
};

} // namespace xser::core

#endif // XSER_CORE_CHECKPOINT_HH
