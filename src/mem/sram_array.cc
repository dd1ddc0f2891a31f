/**
 * @file
 * SramArray implementation.
 */

#include "mem/sram_array.hh"

#include <algorithm>
#include <bit>

#include "ecc/parity.hh"
#include "sim/logging.hh"

namespace xser::mem {

const char *
protectionName(Protection protection)
{
    switch (protection) {
      case Protection::None: return "none";
      case Protection::Parity: return "parity";
      case Protection::Secded: return "secded";
    }
    return "unknown";
}

namespace {

/** Check-bit count per word for a protection scheme. */
unsigned
checkBitsFor(Protection protection)
{
    switch (protection) {
      case Protection::None: return 0;
      case Protection::Parity: return 1;
      case Protection::Secded: return ecc::SecdedCodec::checkBits;
    }
    return 0;
}

} // namespace

SramArray::SramArray(std::string name, size_t words, Protection protection)
    : name_(std::move(name)), protection_(protection),
      bitsPerWord_(64 + checkBitsFor(protection))
{
    if (words == 0)
        fatal(msg("SRAM array '", name_, "' must have at least one word"));
    data_.assign(words, 0);
    // Zero truth still needs consistent check bits.
    check_.assign(words, protection_ == Protection::Secded
                             ? ecc::SecdedCodec::encode(0)
                             : uint8_t{0});
    corrupt_.assign(words, 0);
    checkStale_.assign(words, 0);
}

uint64_t
SramArray::truthData(size_t index) const
{
    if (!corrupt_[index])
        return data_[index];
    const auto entry = truth_.find(index);
    XSER_ASSERT(entry != truth_.end(),
                msg("corrupt word ", index, " of ", name_,
                    " has no truth entry"));
    return entry->second.data;
}

void
SramArray::materializeCheck(size_t index)
{
    if (!checkStale_[index])
        return;
    checkStale_[index] = 0;
    // Stale implies no flip or repair since the last write (both
    // materialize first), so the stored word still equals the truth and
    // one encode serves for both the stored and the truth check bits.
    uint8_t bits = 0;
    switch (protection_) {
      case Protection::None:
        break;
      case Protection::Parity:
        bits = ecc::ParityCodec::encode(data_[index]);
        break;
      case Protection::Secded:
        bits = ecc::SecdedCodec::encode(data_[index]);
        break;
    }
    check_[index] = bits;
    if (!truth_.empty())
        truth_.erase(index);
}

void
SramArray::overwriteCorrupt(size_t index)
{
    ++counters_.overwrittenFlips;
    corrupt_[index] = 0;
    --corruptCount_;
    // The written data becomes the truth, and the check bits stay until
    // materializeCheck(). If a flip left the stored check bits unlike
    // the truth's, the entry keeps the truth's until then.
    const auto entry = truth_.find(index);
    XSER_ASSERT(entry != truth_.end(),
                msg("corrupt word ", index, " of ", name_,
                    " has no truth entry"));
    if (entry->second.check == check_[index])
        truth_.erase(entry);
}

void
SramArray::refreshCorrupt(size_t index)
{
    const auto entry = truth_.find(index);
    XSER_ASSERT(entry != truth_.end(),
                msg("word ", index, " of ", name_,
                    " changed without a truth entry"));
    const uint8_t now_corrupt = (data_[index] != entry->second.data ||
                                 check_[index] != entry->second.check)
                                    ? 1
                                    : 0;
    if (!now_corrupt)
        truth_.erase(entry);
    if (now_corrupt != corrupt_[index]) {
        corrupt_[index] = now_corrupt;
        if (now_corrupt)
            ++corruptCount_;
        else
            --corruptCount_;
    }
}

void
SramArray::emit(trace::EventType type, size_t index, uint32_t bit,
                uint64_t aux)
{
    traceSink_->record({type, now(), traceId_,
                        static_cast<uint64_t>(index), bit, aux});
}

ReadOutcome
SramArray::readChecked(size_t index)
{
    switch (protection_) {
      case Protection::None: {
        ReadOutcome outcome;
        outcome.value = data_[index];
        outcome.status = ecc::CheckStatus::Clean;
        outcome.silentCorruption = data_[index] != truthData(index);
        if (outcome.silentCorruption) {
            ++counters_.silentEscapes;
            if (traceSink_)
                emit(trace::EventType::Propagate, index, trace::noBit, 0);
        }
        return outcome;
      }
      case Protection::Parity:
        return readParity(index);
      case Protection::Secded:
        return readSecded(index);
    }
    panic("unreachable protection scheme");
}

ReadOutcome
SramArray::readParity(size_t index)
{
    materializeCheck(index);
    ReadOutcome outcome;
    outcome.value = data_[index];
    outcome.status = ecc::ParityCodec::check(data_[index], check_[index]);
    outcome.silentCorruption = false;
    if (outcome.status == ecc::CheckStatus::ParityError) {
        ++counters_.parityErrors;
        if (traceSink_)
            emit(trace::EventType::ParityDetect, index, trace::noBit, 0);
        return outcome;
    }
    // Parity passed; an even number of flips (data+check combined) slips
    // through undetected.
    if (data_[index] != truthData(index)) {
        outcome.silentCorruption = true;
        ++counters_.silentEscapes;
        if (traceSink_)
            emit(trace::EventType::Propagate, index, trace::noBit, 0);
    }
    return outcome;
}

ReadOutcome
SramArray::readSecded(size_t index)
{
    materializeCheck(index);
    const uint64_t truth_word = truthData(index);
    ReadOutcome outcome;
    const auto result = ecc::SecdedCodec::decode(data_[index],
                                                 check_[index]);
    outcome.value = result.data;
    outcome.status = result.status;
    outcome.silentCorruption = false;

    switch (result.status) {
      case ecc::CheckStatus::Clean:
        if (result.data != truth_word) {
            // >= 4 flips aliased to a valid codeword: fully silent.
            outcome.silentCorruption = true;
            ++counters_.silentEscapes;
            if (traceSink_)
                emit(trace::EventType::Propagate, index, trace::noBit, 0);
        }
        break;
      case ecc::CheckStatus::CorrectedSingle: {
        // The repaired stored bit is whichever position the decoder
        // changed; observed before the correction is written back.
        uint32_t fixed_bit = trace::noBit;
        if (traceSink_) {
            const uint64_t data_diff = data_[index] ^ result.data;
            const unsigned check_diff =
                static_cast<unsigned>(check_[index] ^ result.check);
            if (data_diff != 0) {
                fixed_bit = static_cast<uint32_t>(
                    std::countr_zero(data_diff));
            } else if (check_diff != 0) {
                fixed_bit = 64u + static_cast<uint32_t>(
                                      std::countr_zero(check_diff));
            }
        }
        // Scrub the correction back into the array, as hardware does.
        data_[index] = result.data;
        check_[index] = result.check;
        refreshCorrupt(index);  // exact repair cleans; miscorrect stays
        ++counters_.corrected;
        if (result.data != truth_word) {
            // The decoder repaired the wrong bit: a >= 3-flip alias. The
            // hardware report stays "corrected"; ground truth says the
            // word is now corrupt (Section 6.2 case 1).
            outcome.status = ecc::CheckStatus::Miscorrected;
            outcome.silentCorruption = true;
            ++counters_.miscorrections;
            if (traceSink_)
                emit(trace::EventType::EccMiscorrect, index, fixed_bit, 0);
        } else if (traceSink_) {
            emit(trace::EventType::EccCorrect, index, fixed_bit, 0);
        }
        break;
      }
      case ecc::CheckStatus::DetectedDouble:
        ++counters_.uncorrected;
        if (traceSink_)
            emit(trace::EventType::UeDetect, index, trace::noBit, 0);
        break;
      default:
        panic("unexpected SECDED decode status");
    }
    return outcome;
}

uint64_t
SramArray::peek(size_t index) const
{
    XSER_ASSERT(index < data_.size(), "SRAM peek out of range");
    return data_[index];
}

uint64_t
SramArray::truth(size_t index) const
{
    XSER_ASSERT(index < data_.size(), "SRAM truth out of range");
    return truthData(index);
}

bool
SramArray::isCorrupted(size_t index) const
{
    XSER_ASSERT(index < data_.size(), "SRAM index out of range");
    return corrupt_[index] != 0;
}

void
SramArray::flipBit(size_t index, unsigned stored_bit)
{
    XSER_ASSERT(index < data_.size(), "SRAM flip out of range");
    XSER_ASSERT(stored_bit < bitsPerWord_, "stored bit out of range");
    materializeCheck(index);
    // A clean word stores its truth: keep it before the flip.
    if (!corrupt_[index])
        truth_.insert_or_assign(index, Truth{data_[index], check_[index]});
    if (stored_bit < 64)
        data_[index] ^= 1ULL << stored_bit;
    else
        check_[index] ^= static_cast<uint8_t>(1u << (stored_bit - 64));
    refreshCorrupt(index);
    ++counters_.bitFlipsInjected;
}

void
SramArray::visit(Archive &ar)
{
    uint64_t words = data_.size();
    auto protection = protection_;
    ar.u64(words);
    ar.u8(protection);
    XSER_ASSERT(words == data_.size() && protection == protection_,
                msg("snapshot shape mismatch restoring ", name_));
    ar.u64(corruptCount_);
    ar.words(data_);
    ar.bytes(check_);
    ar.bytes(checkStale_);
    XSER_ASSERT(data_.size() == words && check_.size() == words &&
                    checkStale_.size() == words,
                msg("snapshot vector length mismatch restoring ", name_));
    ar.u64(counters_.bitFlipsInjected);
    ar.u64(counters_.upsetEventsInjected);
    ar.u64(counters_.corrected);
    ar.u64(counters_.uncorrected);
    ar.u64(counters_.parityErrors);
    ar.u64(counters_.miscorrections);
    ar.u64(counters_.silentEscapes);
    ar.u64(counters_.overwrittenFlips);
    if (corruptCount_ > 0) {
        // Every word's truth, densely: the stored columns overlaid with
        // the side table.
        std::vector<uint64_t> truth_data;
        std::vector<uint8_t> truth_check;
        if (!ar.loading()) {
            truth_data = data_;
            truth_check = check_;
            for (const auto &[index, entry] : truth_) {
                if (corrupt_[index])
                    truth_data[index] = entry.data;
                truth_check[index] = entry.check;
            }
        }
        ar.words(truth_data);
        ar.bytes(truth_check);
        ar.bytes(corrupt_);
        XSER_ASSERT(truth_data.size() == words &&
                        truth_check.size() == words &&
                        corrupt_.size() == words,
                    msg("snapshot truth length mismatch restoring ",
                        name_));
        if (ar.loading()) {
            truth_.clear();
            for (size_t i = 0; i < words; ++i) {
                if (truth_data[i] != data_[i] || truth_check[i] != check_[i])
                    truth_.emplace_hint(truth_.end(), i,
                                        Truth{truth_data[i], truth_check[i]});
                else if (corrupt_[i])
                    ar.reject("corrupt SRAM word equals its truth");
            }
        }
    } else if (ar.loading()) {
        // Clean array: the corruption invariant makes the stored state
        // its own truth.
        truth_.clear();
        std::fill(corrupt_.begin(), corrupt_.end(), 0);
    }
}

} // namespace xser::mem
