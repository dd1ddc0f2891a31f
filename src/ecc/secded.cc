/**
 * @file
 * SECDED(72,64) implementation.
 *
 * Codeword layout: Hamming positions 1..71 hold the 64 data bits with
 * the seven Hamming check bits at power-of-two positions (1, 2, 4, 8,
 * 16, 32, 64). The eighth stored check bit is the overall parity over
 * the whole 72-bit codeword. Storage convention for the 8-bit check
 * field: bits 0..6 are Hamming check bits c0..c6, bit 7 is the overall
 * parity.
 *
 * The codec is on the simulator's hottest path (every cache fill and
 * writeback decodes/encodes eight words), so each check bit's coverage
 * is precomputed as a 64-bit data mask: check_i = parity(data & mask_i),
 * and a check bit at position 2^i only contributes to syndrome bit i.
 */

#include "ecc/secded.hh"

#include <array>
#include <bit>

#include "ecc/swar.hh"
#include "sim/logging.hh"

namespace xser::ecc {

namespace {

/** True when a 1-based Hamming position is a check-bit slot. */
constexpr bool
isCheckPosition(int position)
{
    return (position & (position - 1)) == 0; // power of two
}

/**
 * Precomputed tables: Hamming position -> data-bit mapping and the
 * per-check-bit data coverage masks.
 */
struct Tables {
    std::array<int, 72> positionToData{};  // -1 for check slots
    std::array<uint64_t, 7> coverMask{};   // data bits check i covers

    constexpr Tables()
    {
        for (auto &entry : positionToData)
            entry = -1;
        int data_bit = 0;
        for (int position = 1; position <= 71; ++position) {
            if (isCheckPosition(position))
                continue;
            positionToData[position] = data_bit;
            for (int i = 0; i < 7; ++i) {
                if (position & (1 << i))
                    coverMask[i] |= 1ULL << data_bit;
            }
            ++data_bit;
        }
    }
};

constexpr Tables tables;

/**
 * Recompute the 7-bit Hamming syndrome over stored data + check: seven
 * word-parallel masked-parity reductions, one per coverage class,
 * instead of a walk over the 72 codeword bits.
 */
inline uint8_t
computeSyndrome(uint64_t data, uint8_t check)
{
    uint8_t syndrome = 0;
    for (int i = 0; i < 7; ++i) {
        const int bit = swar::parity64(data & tables.coverMask[i]) ^
                        ((check >> i) & 1);
        syndrome |= static_cast<uint8_t>(bit << i);
    }
    return syndrome;
}

/** Parity over the full 72-bit stored codeword. */
inline int
overallParity(uint64_t data, uint8_t check)
{
    return swar::parity72(data, check);
}

} // namespace

uint8_t
SecdedCodec::encode(uint64_t data)
{
    uint8_t check = 0;
    for (int i = 0; i < 7; ++i) {
        check |= static_cast<uint8_t>(
            swar::parity64(data & tables.coverMask[i]) << i);
    }
    // Overall parity makes the popcount of the whole codeword even.
    check |= static_cast<uint8_t>(overallParity(data, check) << 7);
    return check;
}

SecdedResult
SecdedCodec::decode(uint64_t data, uint8_t check)
{
    SecdedResult result;
    result.data = data;
    result.check = check;
    result.correctedBit = -1;

    const uint8_t syndrome = computeSyndrome(data, check);
    const bool overall_odd = overallParity(data, check) != 0;
    result.syndrome = syndrome;

    if (syndrome == 0 && !overall_odd) {
        result.status = CheckStatus::Clean;
        return result;
    }

    if (!overall_odd) {
        // Non-zero syndrome with even overall parity: an even number of
        // flips (>= 2). Detected, not correctable.
        result.status = CheckStatus::DetectedDouble;
        return result;
    }

    if (syndrome == 0) {
        // Odd parity, zero syndrome: the overall parity bit itself
        // flipped. Correct it.
        result.check = static_cast<uint8_t>(check ^ 0x80u);
        result.status = CheckStatus::CorrectedSingle;
        result.correctedBit = 0; // codeword index of the parity bit
        return result;
    }

    if (syndrome > 71) {
        // Odd number of flips aliasing to an unused position: the
        // decoder knows something is wrong but cannot point at a bit.
        result.status = CheckStatus::DetectedDouble;
        return result;
    }

    // Odd parity with a valid syndrome: flip the indicated position.
    // For a genuine single-bit error this is an exact repair; for >= 3
    // flips it silently lands on the wrong bit (the caller can
    // ground-truth this against its shadow copy and reclassify as
    // Miscorrected).
    if (isCheckPosition(syndrome)) {
        const int check_index =
            std::countr_zero(static_cast<unsigned>(syndrome));
        result.check = static_cast<uint8_t>(check ^ (1u << check_index));
    } else {
        result.data = data ^ (1ULL << tables.positionToData[syndrome]);
    }
    result.status = CheckStatus::CorrectedSingle;
    result.correctedBit = syndrome;
    return result;
}

bool
SecdedCodec::codewordIndexToStorage(int codeword_bit, int &data_bit,
                                    int &check_bit)
{
    XSER_ASSERT(codeword_bit >= 0 && codeword_bit < codewordBits,
                "codeword index out of range");
    if (codeword_bit == 0) {
        check_bit = 7; // overall parity lives in check bit 7
        return false;
    }
    if (isCheckPosition(codeword_bit)) {
        check_bit = std::countr_zero(static_cast<unsigned>(codeword_bit));
        return false;
    }
    data_bit = tables.positionToData[codeword_bit];
    return true;
}

} // namespace xser::ecc
