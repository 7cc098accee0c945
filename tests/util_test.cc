/**
 * @file
 * Unit tests for the utility layer: bit operations, RNG, strings.
 */

#include <gtest/gtest.h>

#include <set>

#include "util/bitops.hh"
#include "util/json.hh"
#include "util/parse.hh"
#include "util/random.hh"
#include "util/str.hh"

namespace drisim
{
namespace
{

TEST(BitOps, PowersOfTwo)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_TRUE(isPowerOf2(1ull << 40));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_FALSE(isPowerOf2(65535));
}

TEST(BitOps, Log2Family)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(64 * 1024), 16u);
    EXPECT_EQ(exactLog2(32), 5u);
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(5), 3u);
    EXPECT_EQ(ceilLog2(8), 3u);
}

TEST(BitOps, Masks)
{
    EXPECT_EQ(maskLow(0), 0ull);
    EXPECT_EQ(maskLow(5), 0x1Full);
    EXPECT_EQ(maskLow(64), ~0ull);
    EXPECT_EQ(bits(0xABCDull, 7, 4), 0xCull);
    EXPECT_EQ(bits(~0ull, 63, 0), ~0ull);
}

TEST(BitOps, Rounding)
{
    EXPECT_EQ(roundUp(13, 8), 16ull);
    EXPECT_EQ(roundUp(16, 8), 16ull);
    EXPECT_EQ(roundDown(13, 8), 8ull);
}

TEST(Rng, Deterministic)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, RangeBounds)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        auto v = r.range(13);
        EXPECT_LT(v, 13u);
    }
    for (int i = 0; i < 1000; ++i) {
        auto v = r.between(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(3);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, GeometricMean)
{
    Rng r(11);
    const double mean = 16.0;
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(r.geometric(mean));
    EXPECT_NEAR(sum / n, mean, mean * 0.05);
}

TEST(Rng, GeometricFloorsAtOne)
{
    Rng r(5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(r.geometric(0.5), 1u);
}

TEST(Str, Format)
{
    EXPECT_EQ(strFormat("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(strFormat("%.2f", 1.5), "1.50");
}

TEST(Str, SplitTrim)
{
    auto parts = strSplit("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(strTrim("  hi \t"), "hi");
    EXPECT_EQ(strTrim(""), "");
}

TEST(Str, BytesRoundTrip)
{
    EXPECT_EQ(bytesToString(1024), "1K");
    EXPECT_EQ(bytesToString(64 * 1024), "64K");
    EXPECT_EQ(bytesToString(1024 * 1024), "1M");
    EXPECT_EQ(bytesToString(100), "100");

    std::uint64_t v = 0;
    EXPECT_TRUE(parseBytes("64K", v));
    EXPECT_EQ(v, 64u * 1024);
    EXPECT_TRUE(parseBytes("2M", v));
    EXPECT_EQ(v, 2u * 1024 * 1024);
    EXPECT_TRUE(parseBytes("512", v));
    EXPECT_EQ(v, 512u);
    EXPECT_FALSE(parseBytes("abc", v));
    EXPECT_FALSE(parseBytes("", v));
}

TEST(Parse, UnsignedAcceptsPlainDecimal)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(parseUnsignedValue("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseUnsignedValue("42", v));
    EXPECT_EQ(v, 42u);
    EXPECT_TRUE(parseUnsignedValue("007", v));
    EXPECT_EQ(v, 7u);
    EXPECT_TRUE(parseUnsignedValue("18446744073709551615", v));
    EXPECT_EQ(v, UINT64_MAX);
}

TEST(Parse, UnsignedRejectsSignWhitespaceAndJunk)
{
    std::uint64_t v = 99;
    // The wraparound bug the shared parser exists to kill: strtoull
    // would happily turn "-1" into 2^64-1.
    EXPECT_FALSE(parseUnsignedValue("-1", v));
    EXPECT_FALSE(parseUnsignedValue("+1", v));
    EXPECT_FALSE(parseUnsignedValue("", v));
    EXPECT_FALSE(parseUnsignedValue(" 1", v));
    EXPECT_FALSE(parseUnsignedValue("1 ", v));
    EXPECT_FALSE(parseUnsignedValue("1x", v));
    EXPECT_FALSE(parseUnsignedValue("0x10", v));
    EXPECT_FALSE(parseUnsignedValue("1e3", v));
    EXPECT_EQ(v, 99u); // untouched on failure
}

TEST(Parse, UnsignedEnforcesCapWithoutWrapping)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(parseUnsignedValue("4096", v, 4096));
    EXPECT_EQ(v, 4096u);
    EXPECT_FALSE(parseUnsignedValue("4097", v, 4096));
    // Single digit past a small cap: the old guard's
    // `maxValue - digit` underflowed here and let it through
    // (caught by the farm's shard=K/N bound, K <= N).
    EXPECT_FALSE(parseUnsignedValue("4", v, 3));
    EXPECT_TRUE(parseUnsignedValue("3", v, 3));
    EXPECT_EQ(v, 3u);
    EXPECT_FALSE(parseUnsignedValue("9", v, 0));
    EXPECT_TRUE(parseUnsignedValue("0", v, 0));
    // Values overflowing u64 must fail, not wrap.
    EXPECT_FALSE(parseUnsignedValue("18446744073709551616", v));
    EXPECT_FALSE(
        parseUnsignedValue("99999999999999999999999999", v));
}

/** Escape, embed in a quoted literal, and parse back. */
std::string
jsonRoundTrip(const std::string &s, bool &ok)
{
    const std::string doc = "\"" + jsonEscape(s) + "\"";
    JsonParser p(doc);
    const std::string out = p.parseString();
    ok = p.ok && p.pos == doc.size();
    return out;
}

TEST(Json, EscapeRoundTripsControlCharacters)
{
    // Every byte below 0x20 plus the two mandatory escapes must
    // survive escape -> parse unchanged (the sidecar format is
    // line-oriented, so embedded newlines in particular must never
    // reach the output raw).
    std::string all;
    for (int c = 1; c < 0x20; ++c)
        all += static_cast<char>(c);
    all += "\"\\";
    EXPECT_EQ(jsonEscape("\n"), "\\n");
    EXPECT_EQ(jsonEscape("\x01"), "\\u0001");
    EXPECT_EQ(jsonEscape("\x1f"), "\\u001f");
    EXPECT_EQ(jsonEscape("\""), "\\\"");
    bool ok = false;
    EXPECT_EQ(jsonRoundTrip(all, ok), all);
    EXPECT_TRUE(ok);
    // The escaped form itself carries no raw control bytes.
    for (const char c : jsonEscape(all))
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
}

TEST(Json, EscapePassesUtf8MultibyteThrough)
{
    // Multibyte UTF-8 (all bytes >= 0x80) is not escaped — it
    // round-trips byte-for-byte.
    const std::string s = "caf\xc3\xa9 \xe6\xbc\xa2\xe5\xad\x97";
    EXPECT_EQ(jsonEscape(s), s);
    bool ok = false;
    EXPECT_EQ(jsonRoundTrip(s, ok), s);
    EXPECT_TRUE(ok);
}

TEST(Json, ParseStringUnescapesFourHexDigits)
{
    // The \uXXXX unescape path: both hex cases, bounds at 0x00ff,
    // and the strictness rules (short escapes, non-hex digits and
    // code points past 0xff all poison the parse).
    {
        const std::string doc = "\"\\u0041\\u00Ff\\u001F\"";
        JsonParser p(doc);
        const std::string out = p.parseString();
        ASSERT_TRUE(p.ok);
        EXPECT_EQ(out, std::string("A\xff\x1f"));
    }
    for (const char *bad :
         {"\"\\u12\"", "\"\\u12g4\"", "\"\\u0100\"", "\"\\uzzzz\"",
          "\"\\u123"}) {
        const std::string doc = bad;
        JsonParser p(doc);
        p.parseString();
        EXPECT_FALSE(p.ok) << bad;
    }
}

TEST(Parse, PositiveRejectsZero)
{
    std::uint64_t v = 7;
    EXPECT_FALSE(parsePositiveValue("0", v));
    EXPECT_FALSE(parsePositiveValue("-1", v));
    EXPECT_EQ(v, 7u);
    EXPECT_TRUE(parsePositiveValue("1", v));
    EXPECT_EQ(v, 1u);
    EXPECT_TRUE(parsePositiveValue("64", v, 64));
    EXPECT_FALSE(parsePositiveValue("65", v, 64));
}

TEST(Parse, FiniteAcceptsNumbersAndRejectsTheRest)
{
    double v = 7.0;
    EXPECT_TRUE(parseFiniteValue("0.05", v));
    EXPECT_EQ(v, 0.05);
    EXPECT_TRUE(parseFiniteValue("-2", v));
    EXPECT_EQ(v, -2.0);
    EXPECT_TRUE(parseFiniteValue("1e-3", v));
    EXPECT_EQ(v, 1e-3);

    v = 7.0;
    for (const char *bad : {"", "abc", "nan", "inf", "-inf", "1e999",
                            " 1", "1 ", "0.5x", "1,5"})
        EXPECT_FALSE(parseFiniteValue(bad, v)) << "'" << bad << "'";
    EXPECT_EQ(v, 7.0); // failures leave the output untouched
}

} // namespace
} // namespace drisim
