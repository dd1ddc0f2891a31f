/**
 * @file
 * FaultInjector implementation.
 */

#include "inject/fault_injector.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace xser::inject {

FaultInjector::FaultInjector(std::vector<mem::BeamTarget> targets,
                             uint64_t seed)
    : targets_(std::move(targets)), rng_(seed)
{
    if (targets_.empty())
        fatal("fault injector needs at least one target");
    cumulativeBits_.reserve(targets_.size());
    for (const auto &target : targets_) {
        footprintBits_ += target.array->totalBits();
        cumulativeBits_.push_back(footprintBits_);
    }
}

void
FaultInjector::inject(const FaultSite &site)
{
    XSER_ASSERT(site.targetIndex < targets_.size(),
                "fault site target out of range");
    mem::SramArray &array = *targets_[site.targetIndex].array;
    array.noteUpsetEvent();
    array.flipBit(site.word, site.bit);
    if (trace::TraceSink *sink = array.traceSink()) {
        sink->record({trace::EventType::Injection, array.now(),
                      array.traceId(), static_cast<uint64_t>(site.word),
                      static_cast<uint32_t>(site.bit), 1});
    }
    log_.push_back(site);
}

FaultSite
FaultInjector::siteAt(uint64_t flat_bit) const
{
    const auto found = std::upper_bound(cumulativeBits_.begin(),
                                        cumulativeBits_.end(), flat_bit);
    const auto target_index =
        static_cast<size_t>(found - cumulativeBits_.begin());
    const uint64_t base =
        target_index == 0 ? 0 : cumulativeBits_[target_index - 1];
    const uint64_t within = flat_bit - base;
    const auto &array = *targets_[target_index].array;

    FaultSite site;
    site.targetIndex = target_index;
    site.word = static_cast<size_t>(within / array.bitsPerWord());
    site.bit = static_cast<unsigned>(within % array.bitsPerWord());
    return site;
}

FaultSite
FaultInjector::injectRandom()
{
    const FaultSite site = siteAt(rng_.nextBounded(footprintBits_));
    inject(site);
    return site;
}

FaultSite
FaultInjector::injectRandomBurst(unsigned size)
{
    XSER_ASSERT(size >= 1, "burst needs at least one bit");
    FaultSite first = siteAt(rng_.nextBounded(footprintBits_));
    mem::SramArray &array = *targets_[first.targetIndex].array;
    // Wider, the wrap below would flip some bits back.
    XSER_ASSERT(size <= array.bitsPerWord(), "burst wider than its word");
    array.noteUpsetEvent();
    if (trace::TraceSink *sink = array.traceSink()) {
        // A burst is one upset event: one record, aux = burst size.
        sink->record({trace::EventType::Injection, array.now(),
                      array.traceId(), static_cast<uint64_t>(first.word),
                      static_cast<uint32_t>(first.bit), size});
    }
    for (unsigned i = 0; i < size; ++i) {
        FaultSite site = first;
        site.bit = (first.bit + i) % array.bitsPerWord();
        array.flipBit(site.word, site.bit);
        log_.push_back(site);
    }
    return first;
}

void
FaultInjector::replay(const std::vector<FaultSite> &log)
{
    for (const auto &site : log)
        inject(site);
}

} // namespace xser::inject
