/**
 * @file
 * FNV-1a-64: the one byte hash behind every checksum and fingerprint in
 * xser -- net frame payload checksums, the campaign config and prefix
 * key hashes, RNG tag derivation, and workload output signatures.
 *
 * The constants are part of persisted and transmitted formats (XSERNETF
 * checksums, .xtrace config hashes) and of every workload signature a
 * golden run records, so they live here once and nowhere else in src/
 * (xser-lint's codec-confinement rule enforces it).
 */

#ifndef XSER_SIM_HASH_HH
#define XSER_SIM_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace xser {

/** FNV-1a-64 offset basis (the hash of the empty string). */
inline constexpr uint64_t fnvOffsetBasis = 0xcbf29ce484222325ULL;

/** FNV-1a-64 prime. */
inline constexpr uint64_t fnvPrime = 0x100000001b3ULL;

/** Fold `size` bytes into an FNV-1a-64 state (default: a fresh one). */
inline uint64_t
fnv1a(const uint8_t *data, size_t size, uint64_t hash = fnvOffsetBasis)
{
    for (size_t i = 0; i < size; ++i) {
        hash ^= data[i];
        hash *= fnvPrime;
    }
    return hash;
}

/** FNV-1a-64 of a byte string. */
inline uint64_t
fnv1a(std::string_view bytes, uint64_t hash = fnvOffsetBasis)
{
    return fnv1a(reinterpret_cast<const uint8_t *>(bytes.data()),
                 bytes.size(), hash);
}

} // namespace xser

#endif // XSER_SIM_HASH_HH
