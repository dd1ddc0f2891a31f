/**
 * @file
 * GoldenImage: a state as the bytes of its visit() walk, captured once
 * and loaded back in place (DESIGN.md section 10).
 */

#ifndef XSER_SIM_GOLDEN_IMAGE_HH
#define XSER_SIM_GOLDEN_IMAGE_HH

#include <functional>
#include <string>
#include <string_view>

#include "sim/bytes.hh"
#include "sim/logging.hh"

namespace xser {

/** A campaign's golden prefix, or `xser avf`'s post-golden-run state. */
struct GoldenImage {
    /** The state's visit() chain, for either archive direction. */
    using Walk = std::function<void(Archive &)>;

    std::string bytes;

    /**
     * Save `walk` into one buffer, reserved past the largest state and
     * glibc's 32 MiB mmap ceiling so it never regrows through heap
     * chunks whose freed copies stay resident.
     */
    static GoldenImage
    capture(const Walk &walk)
    {
        ByteWriter writer;
        writer.reserve(size_t(64) << 20);
        Archive archive(writer);
        walk(archive);
        return GoldenImage{writer.take()};
    }

    /**
     * Load `image` (an image's bytes, or an envelope payload carrying
     * them) in place through `walk`. Fatal unless the walk consumes
     * exactly them: an image is this process's own or was checksummed.
     */
    static void
    load(std::string_view image, const Walk &walk)
    {
        ByteReader reader(image);
        Archive archive(reader);
        walk(archive);
        if (!reader.atEnd())
            fatal(reader.ok() ? "golden image not fully consumed by load"
                              : "golden image underran during load");
    }

    void loadInto(const Walk &walk) const { load(bytes, walk); }
};

} // namespace xser

#endif // XSER_SIM_GOLDEN_IMAGE_HH
