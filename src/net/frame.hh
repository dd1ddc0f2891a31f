/**
 * @file
 * Length-prefixed, versioned binary frames: the unit of every exchange
 * on an xser-server connection (DESIGN.md section 12).
 *
 * Layout (integers little-endian):
 *
 *     bytes 0-7    magic "XSERNETF"
 *     bytes 8-11   protocol version (u32)
 *     bytes 12-15  frame type (u32, see service/protocol.hh)
 *     bytes 16-23  payload size in bytes (u64)
 *     bytes 24-31  FNV-1a checksum of the payload (u64)
 *     bytes 32-    payload
 *
 * Frames cross process and host boundaries, so decoding is paranoid in
 * the core/checkpoint mould: every field is validated before the
 * payload is exposed, malformed input yields {ok=false, error} and
 * never a crash, and a size field beyond maxFramePayloadBytes is
 * rejected immediately instead of making the reader wait forever for
 * bytes that will never come.
 */

#ifndef XSER_NET_FRAME_HH
#define XSER_NET_FRAME_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/hash.hh"

namespace xser::net {

/** Wire protocol version; bump on any frame or payload change. */
inline constexpr uint32_t protocolVersion = 3;

/** Fixed size of the frame header. */
inline constexpr size_t frameHeaderBytes = 32;

/** Upper bound on a payload; larger size fields are protocol errors. */
inline constexpr uint64_t maxFramePayloadBytes = uint64_t(1) << 28;

/** FNV-1a over a byte range (the frame payload checksum). */
using xser::fnv1a;

/** Wrap a payload in a frame (fatal when the payload is oversized). */
std::string encodeFrame(uint32_t type, const std::string &payload);

/** Result of decoding one complete frame from a buffer. */
struct FrameView {
    bool ok = false;
    std::string error;          ///< set when !ok
    bool incomplete = false;    ///< !ok because more bytes may follow
    uint32_t type = 0;
    const uint8_t *payload = nullptr;  ///< into the caller's buffer
    size_t payloadSize = 0;
    size_t frameSize = 0;       ///< header + payload bytes consumed
};

/**
 * Validate and decode exactly one frame at the start of `data`. Never
 * fatals: truncated or corrupted input yields {ok=false, error}. The
 * view aliases `data`, which must outlive it.
 */
FrameView decodeFrame(const uint8_t *data, size_t size);

/** One fully received frame, detached from the stream buffer. */
struct Frame {
    uint32_t type = 0;
    std::string payload;
};

/**
 * Incremental frame extractor over a byte stream: feed() whatever the
 * socket produced, then drain complete frames with next(). A protocol
 * error (bad magic, version skew, oversized or checksum-failing frame)
 * is sticky -- the stream is unrecoverable and the connection must be
 * closed; next() keeps returning Error.
 */
class FrameReader
{
  public:
    enum class Status {
        NeedMore,  ///< no complete frame buffered yet
        Ready,     ///< one frame extracted into `out`
        Error,     ///< stream corrupt; see error()
    };

    /** Append received bytes to the stream buffer. */
    void feed(const char *data, size_t size);

    /** Extract the next complete frame, consuming its bytes. */
    Status next(Frame &out);

    /** Sticky protocol error description (valid after Error). */
    const std::string &error() const { return error_; }

    /** Bytes buffered but not yet consumed (for backpressure caps). */
    size_t buffered() const { return buffer_.size() - consumed_; }

  private:
    std::string buffer_;
    size_t consumed_ = 0;
    std::string error_;
    bool failed_ = false;
};

} // namespace xser::net

#endif // XSER_NET_FRAME_HH
