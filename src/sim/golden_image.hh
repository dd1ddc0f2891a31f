/**
 * @file
 * GoldenImage: a state as the bytes of its visit() walk, captured once
 * and loaded back in place (DESIGN.md section 10).
 */

#ifndef XSER_SIM_GOLDEN_IMAGE_HH
#define XSER_SIM_GOLDEN_IMAGE_HH

#include <functional>
#include <memory>
#include <string>

#include "sim/bytes.hh"
#include "sim/logging.hh"

namespace xser {

/**
 * A campaign's golden prefix, or `xser avf`'s post-golden-run state.
 * Neither leaves the process that captures it, so the image is the
 * walk's bytes alone, with no header or checksum around them.
 */
struct GoldenImage {
    /** The state's visit() chain, for either archive direction. */
    using Walk = std::function<void(Archive &)>;

    /** Shared with every state loaded from it that borrows its words. */
    std::shared_ptr<const std::string> bytes;

    /**
     * Save `walk` into one buffer, reserved past the largest state and
     * glibc's 32 MiB mmap ceiling so it never regrows through heap
     * chunks whose freed copies stay resident.
     */
    static std::string
    save(const Walk &walk)
    {
        ByteWriter writer;
        writer.reserve(size_t(64) << 20);
        Archive archive(writer);
        walk(archive);
        return writer.take();
    }

    /** Save `walk` as an image to load back later. */
    static GoldenImage
    capture(const Walk &walk)
    {
        return GoldenImage{std::make_shared<const std::string>(save(walk))};
    }

    /**
     * Load the image in place through `walk`. The loaded state may
     * borrow the image's words (Archive::borrowWords), keeping a share
     * of `bytes` while it does. Fatal unless the walk consumes exactly
     * the image.
     */
    void
    loadInto(const Walk &walk) const
    {
        ByteReader reader(*bytes);
        Archive archive(reader, bytes);
        walk(archive);
        if (!reader.atEnd())
            fatal(reader.ok() ? "golden image not fully consumed by load"
                              : "golden image underran during load");
    }
};

} // namespace xser

#endif // XSER_SIM_GOLDEN_IMAGE_HH
