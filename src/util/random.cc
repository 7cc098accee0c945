/**
 * @file
 * Seeded deterministic RNG streams.
 */

#include "util/random.hh"

#include <cassert>
#include <cmath>

namespace drisim
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
    // Xoshiro must not start from the all-zero state.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

std::uint64_t
Rng::between(std::uint64_t lo, std::uint64_t hi)
{
    assert(lo <= hi);
    return lo + range(hi - lo + 1);
}

std::uint64_t
Rng::geometric(double mean)
{
    if (mean <= 1.0)
        return 1;
    // P(stop) per trial chosen so E[count] = mean.
    const double p = 1.0 / mean;
    double u = uniform();
    // Inverse CDF of the geometric distribution, clamped for safety.
    double v = std::log1p(-u) / std::log1p(-p);
    std::uint64_t n = static_cast<std::uint64_t>(v) + 1;
    return n == 0 ? 1 : n;
}

} // namespace drisim
