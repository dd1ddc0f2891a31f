/**
 * @file
 * Hamming SECDED(72,64) codec.
 *
 * X-Gene 2 protects its L2 and L3 caches with a single-error-correct,
 * double-error-detect code over 64-bit words (Table 1, [33]). We implement
 * the classic extended Hamming construction: seven Hamming check bits at
 * power-of-two codeword positions plus one overall parity bit.
 *
 * Decode behaviour, which the radiation study depends on:
 *  - 1 flipped bit  -> corrected (reported as a corrected error, CE);
 *  - 2 flipped bits -> detected but uncorrectable (UE);
 *  - 3+ flipped bits -> may alias to a valid single-bit syndrome and be
 *    "corrected" into a *wrong* word. Hardware reports a CE while the data
 *    is silently corrupted -- the mechanism behind the paper's rare
 *    "SDC with corrected-error notification" events (Section 6.2, case 1).
 */

#ifndef XSER_ECC_SECDED_HH
#define XSER_ECC_SECDED_HH

#include <cstdint>

#include "ecc/ecc_types.hh"

namespace xser::ecc {

/** Result of decoding a SECDED-protected word. */
struct SecdedResult {
    CheckStatus status;    ///< what the decoder concluded / reported
    uint64_t data;         ///< post-correction data returned to the bus
    uint8_t check;         ///< post-correction check bits
    uint8_t syndrome;      ///< raw 7-bit Hamming syndrome
    int correctedBit;      ///< codeword position corrected, -1 if none
};

/**
 * SECDED(72,64) codec over 64-bit words with 8 stored check bits.
 * Stateless: arrays store data and check bits; the codec inspects them.
 */
class SecdedCodec
{
  public:
    /** Number of check bits stored alongside each 64-bit word. */
    static constexpr int checkBits = 8;

    /** Codeword length in bits (data + check). */
    static constexpr int codewordBits = 72;

    /** Compute the 8 check bits (7 Hamming + overall parity) for data. */
    static uint8_t encode(uint64_t data);

    /**
     * Decode a stored word.
     *
     * @param data Stored (possibly corrupted) data bits.
     * @param check Stored (possibly corrupted) check bits.
     * @return Decode result with corrected data where applicable.
     */
    static SecdedResult decode(uint64_t data, uint8_t check);

    /**
     * Map a codeword bit index in [0, 72) to storage: returns true and
     * sets data_bit when the position holds a data bit, false and sets
     * check_bit when it holds a check bit. Used by the fault injector to
     * flip uniformly across the *stored* footprint, check bits included.
     */
    static bool codewordIndexToStorage(int codeword_bit, int &data_bit,
                                       int &check_bit);
};

} // namespace xser::ecc

#endif // XSER_ECC_SECDED_HH
