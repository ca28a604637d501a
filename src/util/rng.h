/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * All stochastic behaviour in the library flows through Rng so that
 * simulations, profiles, and ML training are exactly reproducible
 * from a seed. Uses SplitMix64 for seeding/stateless mixing and
 * xoshiro256** for the stream generator.
 */

#ifndef SNIP_UTIL_RNG_H
#define SNIP_UTIL_RNG_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace snip {
namespace util {

/**
 * Stateless 64-bit mixer (SplitMix64 finalizer). Useful for turning
 * structured identifiers into well-distributed hash values
 * deterministically. Inline: this sits on the per-event lookup hot
 * path (table subkeys hash a handful of fields per event).
 *
 * @param x Value to mix.
 * @return Avalanche-mixed 64-bit value.
 */
inline uint64_t
mix64(uint64_t x)
{
    // SplitMix64 finalizer (Steele, Lea, Flood 2014).
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Combine two 64-bit values into one mixed value. */
inline uint64_t
mixCombine(uint64_t a, uint64_t b)
{
    uint64_t m = mix64(b);
    return mix64(a ^ ((m << 17) | (m >> 47)));
}

/**
 * Seedable xoshiro256** pseudo-random generator.
 *
 * Satisfies the UniformRandomBitGenerator requirements so it can be
 * used with <random> distributions, but also provides the handful of
 * uniform draws the simulator needs directly (avoiding libstdc++
 * implementation differences that would hurt reproducibility).
 */
class Rng
{
  public:
    using result_type = uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(uint64_t seed = 0x5eed5eed5eedULL);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** UniformRandomBitGenerator interface. */
    uint64_t operator()() { return next(); }
    static constexpr uint64_t min() { return 0; }
    static constexpr uint64_t max() { return ~0ULL; }

    /** Uniform integer in [lo, hi] (inclusive). Requires lo <= hi. */
    uint64_t uniformInt(uint64_t lo, uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniformReal();

    /** Uniform double in [lo, hi). */
    double uniformReal(double lo, double hi);

    /** Bernoulli trial with probability p of returning true. */
    bool chance(double p);

    /**
     * Fisher-Yates shuffle of indices [0, n): the draw order PFI's
     * in-place shuffle of a column's terms must reproduce (the
     * tests' reference permutation).
     */
    std::vector<size_t> permutation(size_t n);

  private:
    uint64_t s_[4];
};

}  // namespace util
}  // namespace snip

#endif  // SNIP_UTIL_RNG_H
