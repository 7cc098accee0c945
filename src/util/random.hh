/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic choice in drisim (loop trip counts, branch
 * outcomes, data strides) flows through Xoshiro256** seeded from the
 * workload spec, so a given benchmark model always produces the exact
 * same dynamic instruction stream. This is what makes paired
 * conventional/DRI runs directly comparable.
 */

#ifndef DRISIM_UTIL_RANDOM_HH
#define DRISIM_UTIL_RANDOM_HH

#include <bit>
#include <cassert>
#include <cstdint>

namespace drisim::sim
{
class StateIO;
} // namespace drisim::sim

namespace drisim
{

/**
 * Xoshiro256** PRNG (Blackman & Vigna). Deterministic, fast, and
 * identical across platforms — unlike std::mt19937 distributions.
 * The per-draw calls are defined inline: the trace generator makes
 * several per instruction, and a constant power-of-two bound lets
 * range() fold its division to a mask.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed via SplitMix64 expansion. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) (bound > 0). */
    std::uint64_t
    range(std::uint64_t bound)
    {
        assert(bound > 0);
        // Rejection sampling to avoid modulo bias.
        const std::uint64_t threshold = -bound % bound;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform integer in [lo, hi] inclusive (lo <= hi). */
    std::uint64_t between(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 high-quality bits into [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p of true. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * Geometric-ish positive integer with mean approximately
     * @p mean (>= 1); used for loop trip counts.
     */
    std::uint64_t geometric(double mean);

    /** Serialize the generator state (sim/checkpoint.hh). */
    void checkpoint(sim::StateIO io);

  private:
    std::uint64_t s_[4];
};

} // namespace drisim

#endif // DRISIM_UTIL_RANDOM_HH
