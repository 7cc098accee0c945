/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "stats/stats.hh"

namespace drisim::stats
{
namespace
{

TEST(Scalar, CountsAndResets)
{
    StatGroup g("g");
    Scalar s(&g, "events", "event count");
    EXPECT_EQ(s.value(), 0u);
    ++s;
    s += 41;
    EXPECT_EQ(s.value(), 42u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(Scalar, SetOverwrites)
{
    StatGroup g("g");
    Scalar s(&g, "x", "");
    s.set(100);
    EXPECT_EQ(s.value(), 100u);
}

TEST(StatGroup, DumpHierarchy)
{
    StatGroup root("sim");
    StatGroup child(&root, "cache");
    Scalar hits(&child, "hits", "cache hits");
    hits += 7;

    std::ostringstream os;
    root.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("sim.cache.hits 7"), std::string::npos);
    EXPECT_NE(out.find("# cache hits"), std::string::npos);
}

TEST(StatGroup, ResetAllRecurses)
{
    StatGroup root("sim");
    StatGroup child(&root, "c");
    Scalar a(&root, "a", "");
    Scalar b(&child, "b", "");
    a += 1;
    b += 2;
    root.resetAll();
    EXPECT_EQ(a.value(), 0u);
    EXPECT_EQ(b.value(), 0u);
}

} // namespace
} // namespace drisim::stats
