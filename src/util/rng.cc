#include "util/rng.h"

#include "util/logging.h"

namespace snip {
namespace util {

namespace {

/** Rotate left. */
inline uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(uint64_t seed_value)
{
    // Expand the seed into the four xoshiro words via SplitMix64,
    // per the reference implementation's recommendation.
    uint64_t sm = seed_value;
    for (auto &word : s_) {
        sm += 0x9e3779b97f4a7c15ULL;
        word = mix64(sm);
    }
}

uint64_t
Rng::next()
{
    // xoshiro256** (Blackman & Vigna 2018).
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

uint64_t
Rng::uniformInt(uint64_t lo, uint64_t hi)
{
    if (lo > hi)
        panic("Rng::uniformInt: lo (%llu) > hi (%llu)",
              (unsigned long long)lo, (unsigned long long)hi);
    uint64_t span = hi - lo;
    if (span == ~0ULL)
        return next();
    // Rejection sampling to avoid modulo bias: reject r below
    // (2^64 - bound) % bound. That threshold is below bound, so it
    // is computed only for the rare draw with r < bound.
    uint64_t bound = span + 1;
    for (;;) {
        uint64_t r = next();
        if (r >= bound || r >= (~bound + 1) % bound)
            return lo + (r % bound);
    }
}

double
Rng::uniformReal()
{
    // 53 high bits -> double in [0, 1).
    return (next() >> 11) * 0x1.0p-53;
}

double
Rng::uniformReal(double lo, double hi)
{
    return lo + (hi - lo) * uniformReal();
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniformReal() < p;
}

std::vector<size_t>
Rng::permutation(size_t n)
{
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i)
        idx[i] = i;
    for (size_t i = n; i > 1; --i) {
        size_t j = static_cast<size_t>(uniformInt(0, i - 1));
        std::swap(idx[i - 1], idx[j]);
    }
    return idx;
}

}  // namespace util
}  // namespace snip
