/**
 * @file
 * The byte codec: one little-endian writer, one poisoning reader, and
 * the Archive that lets a class name its fields once for both
 * directions.
 *
 * Every byte format xser keeps or transmits is built from these
 * primitives: golden images (sim/golden_image.hh), net frames
 * (net/frame.hh), service messages (service/protocol.hh), .xtrace files
 * (trace/trace_writer.hh), and the campaign config hash.
 *
 *  - fixed-width little-endian u8 / u32 / u64;
 *  - f64 as its IEEE-754 bit pattern (a bit-exact round trip);
 *  - unsigned LEB128 varints (1..10 bytes);
 *  - byte strings behind a u32, u64, or varint length prefix;
 *  - u64-counted word and byte vectors -- the word path is one memcpy
 *    on little-endian hosts, because it carries the multi-megabyte
 *    cache and DRAM arrays of every golden image;
 *  - the same u64-counted words left in place (WordView): a load may
 *    borrow them from an input whose owner it shares
 *    (Archive::borrowWords) instead of copying them.
 *
 * The encoding is platform-independent by construction (no host
 * endianness or padding leaks into the bytes), so two hosts encoding
 * the same state produce the same bytes and the determinism gates can
 * compare them byte for byte.
 *
 * ByteReader never reads out of bounds. An underrun, an over-long
 * varint, or a length prefix beyond the remaining bytes poisons it:
 * ok() goes false and every later read yields zero or empty. What a
 * poisoned reader means is the caller's decision -- the protocol and
 * trace decoders report a clean error, while a golden-image load (of
 * an image the same process captured, so bad bytes there are a logic
 * bug) is fatal.
 */

#ifndef XSER_SIM_BYTES_HH
#define XSER_SIM_BYTES_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace xser {

/**
 * u64 words left in their stream encoding (little-endian, at any
 * alignment) inside bytes the view does not own. Words sit at any
 * offset of a stream (a golden image's DRAM pages follow fields of
 * every width), so they are decoded through memcpy, never read through
 * a uint64_t pointer.
 */
class WordView
{
  public:
    WordView() = default;
    WordView(const char *bytes, size_t count)
        : bytes_(bytes), count_(count)
    {
    }

    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    /** The words as stream bytes (size() * 8 of them). */
    std::string_view bytes() const { return {bytes_, count_ * 8}; }

    /** Decode words [first, first + count) into `out`. */
    void
    copy(size_t first, size_t count, uint64_t *out) const
    {
        const char *at = bytes_ + first * 8;
        if constexpr (std::endian::native == std::endian::little) {
            if (count > 0)
                std::memcpy(out, at, count * 8);
        } else {
            for (size_t i = 0; i < count; ++i) {
                uint64_t word = 0;
                for (unsigned b = 0; b < 8; ++b) {
                    const auto byte = static_cast<uint8_t>(*at++);
                    word |= static_cast<uint64_t>(byte) << (8 * b);
                }
                out[i] = word;
            }
        }
    }

  private:
    const char *bytes_ = nullptr;
    size_t count_ = 0;
};

/** Append-only little-endian encoder over a std::string. */
class ByteWriter
{
  public:
    void u8(uint8_t value) { out_.push_back(static_cast<char>(value)); }
    void u32(uint32_t value) { fixed(value, 4); }
    void u64(uint64_t value) { fixed(value, 8); }

    /** Bit pattern of a double (exact round trip, no text formatting). */
    void f64(double value) { u64(std::bit_cast<uint64_t>(value)); }

    /** Unsigned LEB128: 7 bits per byte, low group first. */
    void
    varint(uint64_t value)
    {
        while (value >= 0x80u) {
            out_.push_back(static_cast<char>(0x80u | (value & 0x7fu)));
            value >>= 7;
        }
        out_.push_back(static_cast<char>(value));
    }

    /** Bytes verbatim, without a length prefix. */
    void raw(std::string_view bytes) { out_.append(bytes); }

    /** Byte string behind a u32 length. */
    void
    str32(std::string_view text)
    {
        u32(static_cast<uint32_t>(text.size()));
        raw(text);
    }

    /** Byte string behind a u64 length. */
    void
    str64(std::string_view text)
    {
        u64(text.size());
        raw(text);
    }

    /** Byte string behind a varint length. */
    void
    strVarint(std::string_view text)
    {
        varint(text.size());
        raw(text);
    }

    /** u64 count, then the words. */
    void
    words(const std::vector<uint64_t> &words)
    {
        u64(words.size());
        if constexpr (std::endian::native == std::endian::little) {
            // The in-memory layout already is the stream format.
            if (!words.empty())
                out_.append(reinterpret_cast<const char *>(words.data()),
                            words.size() * 8);
        } else {
            for (const uint64_t word : words)
                u64(word);
        }
    }

    /** u64 count, then the words (their bytes already are the stream). */
    void
    words(const WordView &view)
    {
        u64(view.size());
        raw(view.bytes());
    }

    /** u64 count, then the bytes. */
    void
    bytes(const std::vector<uint8_t> &bytes)
    {
        u64(bytes.size());
        if (!bytes.empty())
            out_.append(reinterpret_cast<const char *>(bytes.data()),
                        bytes.size());
    }

    void reserve(size_t bytes) { out_.reserve(bytes); }
    size_t size() const { return out_.size(); }
    const std::string &data() const { return out_; }

    /** Move the accumulated bytes out (the writer becomes empty). */
    std::string
    take()
    {
        std::string bytes = std::move(out_);
        out_.clear();
        return bytes;
    }

  private:
    void
    fixed(uint64_t value, unsigned width)
    {
        char bytes[8];
        for (unsigned i = 0; i < width; ++i)
            bytes[i] = static_cast<char>((value >> (8 * i)) & 0xffu);
        out_.append(bytes, width);
    }

    std::string out_;
};

/** Bounds-checked, poisoning decoder over bytes it does not own. */
class ByteReader
{
  public:
    ByteReader(const void *data, size_t size)
        : data_(static_cast<const uint8_t *>(data)), size_(size)
    {
    }

    explicit ByteReader(std::string_view bytes)
        : ByteReader(bytes.data(), bytes.size())
    {
    }

    /** False once any read has failed (or fail() was called). */
    bool ok() const { return ok_; }

    /** Healthy and every byte consumed. */
    bool atEnd() const { return ok_ && pos_ == size_; }

    /** Bytes not yet consumed. */
    size_t remaining() const { return size_ - pos_; }

    /** Poison the reader: the caller found the bytes malformed. */
    void fail() { ok_ = false; }

    uint8_t
    u8()
    {
        const uint8_t *bytes = take(1);
        return bytes != nullptr ? bytes[0] : 0;
    }

    uint32_t u32() { return static_cast<uint32_t>(fixed(4)); }
    uint64_t u64() { return fixed(8); }
    double f64() { return std::bit_cast<double>(u64()); }

    /** Unsigned LEB128; poisons on truncation or more than 10 bytes. */
    uint64_t
    varint()
    {
        uint64_t value = 0;
        for (unsigned shift = 0; shift < 70; shift += 7) {
            const uint8_t *byte = take(1);
            if (byte == nullptr)
                return 0;
            value |= static_cast<uint64_t>(*byte & 0x7fu) << shift;
            if ((*byte & 0x80u) == 0)
                return value;
        }
        fail();
        return 0;
    }

    /** The next `count` bytes, aliasing the input ("" once poisoned). */
    std::string_view
    raw(uint64_t count)
    {
        const uint8_t *bytes = take(count);
        if (bytes == nullptr)
            return {};
        return {reinterpret_cast<const char *>(bytes),
                static_cast<size_t>(count)};
    }

    /** Byte string behind a u32 length. */
    std::string str32() { return std::string(raw(u32())); }

    /** Byte string behind a u64 length. */
    std::string str64() { return std::string(raw(u64())); }

    /** u64-counted words into `out` (replacing it; empty once poisoned). */
    void
    words(std::vector<uint64_t> &out)
    {
        const WordView view = wordView();
        out.resize(view.size());
        view.copy(0, view.size(), out.data());
    }

    /** u64-counted words left in the input (empty once poisoned). */
    WordView
    wordView()
    {
        const uint64_t count = u64();
        // Validate the count before multiplying: a corrupt prefix must
        // not overflow into a passing bounds check (or a huge resize).
        if (count > remaining() / 8)
            fail();
        const uint8_t *bytes = take(count * 8);
        if (bytes == nullptr)
            return {};
        return WordView(reinterpret_cast<const char *>(bytes),
                        static_cast<size_t>(count));
    }

    /** u64-counted bytes into `out` (replacing it; empty once poisoned). */
    void
    bytes(std::vector<uint8_t> &out)
    {
        const uint64_t count = u64();
        const uint8_t *bytes = take(count);
        if (bytes == nullptr) {
            out.clear();
            return;
        }
        out.assign(bytes, bytes + count);
    }

  private:
    /** Consume `count` bytes if available; poison otherwise. */
    const uint8_t *
    take(uint64_t count)
    {
        if (!ok_ || count > size_ - pos_) {
            ok_ = false;
            return nullptr;
        }
        const uint8_t *at = data_ + pos_;
        pos_ += static_cast<size_t>(count);
        return at;
    }

    uint64_t
    fixed(unsigned width)
    {
        const uint8_t *bytes = take(width);
        if (bytes == nullptr)
            return 0;
        uint64_t value = 0;
        for (unsigned i = 0; i < width; ++i)
            value |= static_cast<uint64_t>(bytes[i]) << (8 * i);
        return value;
    }

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
    bool ok_ = true;
};

/**
 * One field list, both directions -- the cereal / boost.serialization
 * archive idiom. A class implements a single non-template
 * `void visit(Archive &ar)` that names each field once, with its wire
 * width. Over a ByteWriter the archive saves every field; over a
 * ByteReader it loads every field in place, in the same order -- so
 * save and restore cannot drift apart. Work only one direction needs
 * (validating a shape, rebuilding derived state) branches on
 * loading(). A saving archive only reads the fields it is handed.
 */
class Archive
{
  public:
    explicit Archive(ByteWriter &writer) : writer_(&writer) {}
    explicit Archive(ByteReader &reader) : reader_(&reader) {}

    /**
     * Load from `reader`, whose input lies inside `*owner`: the archive
     * then lends views of its words (borrowWords), which stay valid for
     * as long as the borrower holds a share of owner().
     */
    Archive(ByteReader &reader, std::shared_ptr<const std::string> owner)
        : reader_(&reader), owner_(std::move(owner))
    {
    }

    bool loading() const { return reader_ != nullptr; }

    /** What keeps a loading input alive (null when saving or unowned). */
    const std::shared_ptr<const std::string> &owner() const { return owner_; }

    /** False once a loading archive's reader is poisoned. */
    bool ok() const { return reader_ == nullptr || reader_->ok(); }

    /**
     * Refuse the bytes being loaded (a shape or range check failed):
     * poisons the reader and keeps the first refusal's reason. No-op
     * when saving or when the reader is already poisoned.
     */
    void
    reject(const char *reason)
    {
        if (reader_ != nullptr && reader_->ok()) {
            reader_->fail();
            rejection_ = reason;
        }
    }

    /** Reason given to reject(), or null. */
    const char *rejection() const { return rejection_; }

    /**
     * Fixed-width fields of any integer, bool, or enum type that fits
     * (a bool travels as one 0/1 byte and loads as "nonzero").
     */
    template <class T>
    void
    u8(T &value)
    {
        field<uint8_t>(value);
    }

    template <class T>
    void
    u32(T &value)
    {
        field<uint32_t>(value);
    }

    template <class T>
    void
    u64(T &value)
    {
        field<uint64_t>(value);
    }

    void
    f64(double &value)
    {
        if (writer_ != nullptr)
            writer_->f64(value);
        else
            value = reader_->f64();
    }

    void
    str32(std::string &text)
    {
        if (writer_ != nullptr)
            writer_->str32(text);
        else
            text = reader_->str32();
    }

    void
    str64(std::string &text)
    {
        if (writer_ != nullptr)
            writer_->str64(text);
        else
            text = reader_->str64();
    }

    void
    words(std::vector<uint64_t> &words)
    {
        if (writer_ != nullptr)
            writer_->words(words);
        else
            reader_->words(words);
    }

    /**
     * Words a load borrows instead of copying, on the wire exactly as
     * words(): saving writes `view`'s words; loading points `view` into
     * the input, valid while a share of owner() is held. A loading
     * archive without an owner cannot lend and rejects.
     */
    void
    borrowWords(WordView &view)
    {
        if (writer_ != nullptr)
            writer_->words(view);
        else if (owner_ == nullptr)
            reject("borrowed words need an owned input");
        else
            view = reader_->wordView();
    }

    void
    bytes(std::vector<uint8_t> &bytes)
    {
        if (writer_ != nullptr)
            writer_->bytes(bytes);
        else
            reader_->bytes(bytes);
    }

  private:
    template <class Wire, class T>
    void
    field(T &value)
    {
        static_assert(std::is_integral_v<T> || std::is_enum_v<T>,
                      "fixed-width fields are integers or enums");
        static_assert(sizeof(T) <= sizeof(Wire),
                      "field is wider than its wire width");
        if (writer_ != nullptr) {
            const auto wire = static_cast<Wire>(value);
            if constexpr (sizeof(Wire) == 1)
                writer_->u8(wire);
            else if constexpr (sizeof(Wire) == 4)
                writer_->u32(wire);
            else
                writer_->u64(wire);
        } else {
            if constexpr (sizeof(Wire) == 1)
                value = static_cast<T>(reader_->u8());
            else if constexpr (sizeof(Wire) == 4)
                value = static_cast<T>(reader_->u32());
            else
                value = static_cast<T>(reader_->u64());
        }
    }

    ByteWriter *writer_ = nullptr;
    ByteReader *reader_ = nullptr;
    std::shared_ptr<const std::string> owner_;
    const char *rejection_ = nullptr;
};

} // namespace xser

#endif // XSER_SIM_BYTES_HH
