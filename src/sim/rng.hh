/**
 * @file
 * Deterministic random-number infrastructure.
 *
 * Every stochastic component of the simulator draws from an explicitly
 * seeded Rng so that campaigns replay bit-exactly. The generator is
 * xoshiro256** seeded through SplitMix64, following the reference
 * implementations by Blackman & Vigna. Distribution helpers cover the
 * needs of the radiation and voltage models: uniform, normal (Box-Muller),
 * exponential (inversion), and Poisson (Knuth for small means, PTRD-style
 * normal approximation fallback for large means).
 */

#ifndef XSER_SIM_RNG_HH
#define XSER_SIM_RNG_HH

#include <array>
#include <cstdint>
#include <string>

#include "sim/logging.hh"

namespace xser {

/**
 * SplitMix64 stream, used for seeding and for cheap decorrelated
 * sub-streams.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(uint64_t seed) : state_(seed) {}

    /** Next 64-bit value. */
    uint64_t next();

  private:
    uint64_t state_;
};

/**
 * xoshiro256** pseudo-random generator with distribution helpers.
 *
 * All simulator randomness flows through instances of this class; there is
 * deliberately no global generator.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /**
     * Derive a decorrelated child stream. Used to give each array, core,
     * and session its own stream so event ordering never perturbs other
     * components' draws.
     *
     * @param tag Stable label mixed into the child seed.
     */
    Rng fork(const std::string &tag) const;

    /** Uniform 64-bit value. */
    uint64_t
    nextU64()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);

        return result;
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        // 53 top bits -> double in [0, 1).
        return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound) with rejection to avoid modulo bias. */
    uint64_t
    nextBounded(uint64_t bound)
    {
        XSER_ASSERT(bound > 0, "nextBounded requires a positive bound");
        // Rejection sampling over the largest multiple of bound.
        const uint64_t threshold = (0 - bound) % bound;
        for (;;) {
            uint64_t value = nextU64();
            if (value >= threshold)
                return value % bound;
        }
    }

    /** Bernoulli draw with success probability p (clamped to [0, 1]). */
    bool
    nextBool(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /** Standard normal via Box-Muller (cached second variate). */
    double nextGaussian();

    /** Normal with the given mean and standard deviation. */
    double nextGaussian(double mean, double sigma);

    /** Exponential with the given rate (mean 1/rate). */
    double nextExponential(double rate);

    /**
     * Poisson draw with the given mean. Exact (Knuth) for mean < 30;
     * normal approximation with continuity correction above, which is
     * accurate to well under the statistical noise of any campaign.
     */
    uint64_t nextPoisson(double mean);

    /** Expose raw state for checkpoints and checkpoint tests. */
    std::array<uint64_t, 4> state() const { return state_; }

    /** Cached Box-Muller variate, part of the checkpointable state. */
    double cachedGaussian() const { return cachedGaussian_; }
    bool hasCachedGaussian() const { return hasCachedGaussian_; }

    /**
     * Restore a previously observed state (checkpoint restore). The
     * restored generator continues the original draw sequence exactly,
     * including a pending cached Box-Muller variate.
     */
    void
    restoreState(const std::array<uint64_t, 4> &state,
                 double cached_gaussian, bool has_cached_gaussian)
    {
        state_ = state;
        cachedGaussian_ = cached_gaussian;
        hasCachedGaussian_ = has_cached_gaussian;
    }

  private:
    /** Rotate left helper for xoshiro. */
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<uint64_t, 4> state_;
    double cachedGaussian_ = 0.0;
    bool hasCachedGaussian_ = false;
};

/**
 * Deterministic stream splitter for parallel campaigns.
 *
 * Every independent work unit -- session `s` of replicate `r` under a
 * campaign seed -- gets its own decorrelated Rng seed derived purely
 * from the coordinate (seed, session, replicate), never from thread
 * identity or scheduling. Each coordinate passes through a full
 * SplitMix64 finalizer round, so neighbouring coordinates map to
 * statistically independent seeds and results are bit-identical for
 * any worker count.
 */
uint64_t deriveStreamSeed(uint64_t campaign_seed, uint64_t session_index,
                          uint64_t replicate_index);

} // namespace xser

#endif // XSER_SIM_RNG_HH
