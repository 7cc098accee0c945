/**
 * @file
 * expectSameRun: two RunOutputs are the same run when every field
 * forEachCounter names is equal, doubles bit for bit. A failure
 * names the field. Shared by every test that compares runs.
 */

#ifndef DRISIM_TESTS_SAME_RUN_HH
#define DRISIM_TESTS_SAME_RUN_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "harness/runner.hh"

namespace drisim
{

/** One RunOutput field: its payload name, its exact bits (a double's
 *  representation, a count's value) and its value as text. */
struct CounterBits
{
    std::string name;
    std::uint64_t bits = 0;
    std::string text;
};

inline std::vector<CounterBits>
counterBits(const RunOutput &out)
{
    std::vector<CounterBits> fields;
    forEachCounter(out, [&fields](const char *name, auto v) {
        CounterBits c{name, 0, ::testing::PrintToString(v)};
        if constexpr (std::is_floating_point_v<decltype(v)>)
            std::memcpy(&c.bits, &v, sizeof v);
        else
            c.bits = v;
        fields.push_back(std::move(c));
    });
    return fields;
}

inline void
expectSameRun(const RunOutput &a, const RunOutput &b)
{
    const std::vector<CounterBits> x = counterBits(a);
    const std::vector<CounterBits> y = counterBits(b);
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_EQ(x[i].bits, y[i].bits)
            << x[i].name << ": " << x[i].text << " vs " << y[i].text;
}

} // namespace drisim

#endif // DRISIM_TESTS_SAME_RUN_HH
