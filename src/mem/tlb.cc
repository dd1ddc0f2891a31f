/**
 * @file
 * RefetchableArray implementation.
 */

#include "mem/tlb.hh"

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace xser::mem {

RefetchableArray::RefetchableArray(std::string name, size_t words,
                                   CacheLevel level, EdacReporter *reporter,
                                   uint64_t fill_seed)
    : array_(std::move(name), words, Protection::Parity), level_(level),
      reporter_(reporter), fillSeed_(fill_seed)
{
    XSER_ASSERT(reporter_ != nullptr,
                "refetchable array needs an EDAC reporter");
    for (size_t i = 0; i < array_.words(); ++i)
        array_.write(i, fillValue(i));
}

uint64_t
RefetchableArray::fillValue(size_t index) const
{
    // SplitMix64 of (seed ^ index): stable per-entry synthetic contents.
    SplitMix64 mixer(fillSeed_ ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
    return mixer.next();
}

bool
RefetchableArray::touch(size_t index)
{
    ReadOutcome outcome = array_.read(index);
    if (outcome.status == ecc::CheckStatus::ParityError) {
        // Invalidate-and-refetch: the entry is reloaded from the
        // authoritative source; hardware logs a corrected upset.
        array_.write(index, fillValue(index));
        reporter_->post(now_ ? *now_ : 0, level_, EdacKind::Corrected,
                        array_.name());
        ++repairs_;
        return true;
    }
    if (outcome.silentCorruption) {
        // An even number of flips escaped parity. These arrays hold
        // refetchable state, so model the eventual miss/replacement
        // repairing the entry; the escape is already counted by the
        // array's silentEscapes statistic.
        array_.write(index, fillValue(index));
    }
    return false;
}

void
RefetchableArray::replace(size_t index)
{
    array_.write(index, fillValue(index));
}

} // namespace xser::mem
