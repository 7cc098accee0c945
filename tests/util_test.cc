/**
 * @file
 * Unit tests for the utility layer: bit operations, RNG, strings.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

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

/**
 * The first 64 draws of each call from a fresh Rng, for two seeds.
 * Every workload stream is built from this sequence, so any change
 * to it moves every golden; these values pin it call by call.
 */
struct RngPin
{
    std::uint64_t seed;
    std::uint64_t next[64];
    /** range(8), one digit per draw. */
    const char *range8;
    std::uint64_t range1000[64];
    double uniform[64];
    /** chance(0.3), '1' for true. */
    const char *chance30;
    std::uint64_t geometric5[64];
};

const RngPin kRngPins[] = {
    {0x1ull,
     {0xb3f2af6d0fc710c5ull, 0x853b559647364ceaull, 0x92f89756082a4514ull,
      0x642e1c7bc266a3a7ull, 0xb27a48e29a233673ull, 0x24c123126ffda722ull,
      0x123004ef8df510e6ull, 0x61954dcc47b1e89dull, 0xddfdb48ab9ed4a21ull,
      0x8d3cdb8c3aa5b1d0ull, 0xeebd114bd87226d1ull, 0xf50c3ff1e7d7e8a6ull,
      0xeeca3115e23bc8f1ull, 0xab49ed3db4c66435ull, 0x99953c6c57808dd7ull,
      0xe3fa941b05219325ull, 0x1498c2c122087c87ull, 0x7dc9c3c6cd31382full,
      0x0bbadedec37361c0ull, 0x10538449e2d4f5afull, 0x769641094930f791ull,
      0x7f18e7aeec071179ull, 0x9c5cdfccab6854c1ull, 0x598a4ace20e1c342ull,
      0x67897060e036774aull, 0x3641beb1bbff27bcull, 0x6332dd9209de72a7ull,
      0xdabc01ca5e89b9d0ull, 0xc04ae9f01af82825ull, 0xfb747617a7e9a1afull,
      0x02cfb6839447a959ull, 0xe1995e69b98a91ecull, 0x6d8eb8acb8d215d1ull,
      0x651a7630c8a30913ull, 0xa62e3f960520cc44ull, 0x3c5f2e1f9142810eull,
      0x3f4a671fbade461cull, 0xd6643638d9441b7eull, 0x6251a2af7751c1a7ull,
      0x781971381bb381a9ull, 0x15727142c64f7c34ull, 0x04d3ccc0075db8b7ull,
      0x7e9135ca4e788b00ull, 0xa2b01afb1e21e5e1ull, 0x4f193c25cbe4b175ull,
      0x70293b386c76ec73ull, 0x814d4a1d3a9978bcull, 0x83302fd883e4773bull,
      0xf3d9cb92b232fbfaull, 0x6b61d018e68a4661ull, 0x36f9b39f485a7169ull,
      0xa2782163e5935579ull, 0xe62d4908480774efull, 0xf4f55300ca24e2f7ull,
      0xe6034bc0bdee2210ull, 0x3e8c86c936a86a72ull, 0xaf7676ab5db43e0bull,
      0x33e3de0efdd665a8ull, 0x86ef579744a9ad7dull, 0xcc9495782ec90efcull,
      0x9ebd5ced207f300bull, 0xb08902dc1077d1a1ull, 0x61863729079a0523ull,
      0xf6a42749e2979d1aull},
     "5247326510161575770711122470571413464671470153432111770230543132",
     {557, 522, 900, 383, 371, 162, 286, 429, 321, 208, 841, 110, 401, 573,
      191, 749, 615, 711, 80, 807, 825, 577, 177, 730, 474, 260, 463, 248, 925,
      759, 49, 276, 761, 259, 364, 86, 732, 742, 71, 953, 572, 943, 728, 577,
      341, 195, 708, 539, 298, 961, 681, 401, 55, 543, 392, 314, 843, 440, 101,
      684, 699, 185, 883, 682},
     {0x1.67e55eda1f8e2p-1, 0x1.0a76ab2c8e6c9p-1, 0x1.25f12eac10548p-1,
      0x1.90b871ef099a8p-2, 0x1.64f491c534466p-1, 0x1.260918937fedp-3,
      0x1.23004ef8df51p-4, 0x1.865537311ec7ap-2, 0x1.bbfb691573da9p-1,
      0x1.1a79b718754b6p-1, 0x1.dd7a2297b0e44p-1, 0x1.ea187fe3cfafdp-1,
      0x1.dd94622bc4779p-1, 0x1.5693da7b698ccp-1, 0x1.332a78d8af011p-1,
      0x1.c7f528360a432p-1, 0x1.498c2c1220878p-4, 0x1.f7270f1b34c4ep-2,
      0x1.775bdbd86e6cp-5, 0x1.0538449e2d4fp-4, 0x1.da59042524c3cp-2,
      0x1.fc639ebbb01c4p-2, 0x1.38b9bf9956d0ap-1, 0x1.66292b388387p-2,
      0x1.9e25c18380d9cp-2, 0x1.b20df58ddff9p-3, 0x1.8ccb76482779cp-2,
      0x1.b5780394bd137p-1, 0x1.8095d3e035f05p-1, 0x1.f6e8ec2f4fd34p-1,
      0x1.67db41ca23d4p-7, 0x1.c332bcd373152p-1, 0x1.b63ae2b2e3484p-2,
      0x1.9469d8c3228c2p-2, 0x1.4c5c7f2c0a419p-1, 0x1.e2f970fc8a14p-3,
      0x1.fa5338fdd6f2p-3, 0x1.acc86c71b2883p-1, 0x1.89468abddd47p-2,
      0x1.e065c4e06ecep-2, 0x1.5727142c64f78p-4, 0x1.34f33001d76ep-6,
      0x1.fa44d72939e22p-2, 0x1.456035f63c43cp-1, 0x1.3c64f0972f92cp-2,
      0x1.c0a4ece1b1dbap-2, 0x1.029a943a7532fp-1, 0x1.06605fb107c8ep-1,
      0x1.e7b397256465fp-1, 0x1.ad8740639a29p-2, 0x1.b7cd9cfa42d38p-3,
      0x1.44f042c7cb26ap-1, 0x1.cc5a9210900eep-1, 0x1.e9eaa6019449cp-1,
      0x1.cc0697817bdc4p-1, 0x1.f4643649b5434p-3, 0x1.5eeced56bb687p-1,
      0x1.9f1ef077eeb3p-3, 0x1.0ddeaf2e89535p-1, 0x1.99292af05d921p-1,
      0x1.3d7ab9da40fe6p-1, 0x1.611205b820efap-1, 0x1.8618dca41e68p-2,
      0x1.ed484e93c52f3p-1},
     "0000011000000000101100000100001000011000110000000010000101000000",
     {6, 4, 4, 3, 6, 1, 1, 3, 10, 4, 13, 15, 13, 5, 5, 10, 1, 4, 1, 1, 3, 4, 5,
      2, 3, 2, 3, 9, 7, 19, 1, 10, 3, 3, 5, 2, 2, 9, 3, 3, 1, 1, 4, 5, 2, 3, 4,
      4, 14, 3, 2, 5, 11, 15, 11, 2, 6, 2, 4, 8, 5, 6, 3, 15}},
    {0x9e3779b97f4a7c15ull,
     {0x422ea740d0977210ull, 0xe062b061b42e2928ull, 0x5a071fc5930841b6ull,
      0x01334ef8ed3cc2bdull, 0xe45cbd6a2d9e96dbull, 0x3bc1fe841a5f292full,
      0x60001d95ebbbd8e6ull, 0xa0aee00b5b303762ull, 0x9e23c8d7514cf750ull,
      0xfc79b675a1a76a3cull, 0xd430797eb1952242ull, 0x5d8c1e38c042f56dull,
      0x62192f394c129095ull, 0xb66848e210a0f50dull, 0x2d1d2eb24edaba45ull,
      0x794532bcac68202cull, 0xbb7d1f4df9e5ff45ull, 0x66390d3db66e29b0ull,
      0xf0f80671e1d4661eull, 0x42a14ac362313e60ull, 0xcf8d9f59b229831aull,
      0x446c1abc2269490aull, 0x3815637316a45d1aull, 0xfc1e6678ef2f7ca3ull,
      0x45ffb16b9099ad54ull, 0x0a722e98ed34373full, 0x6a6d3b285ef35674ull,
      0xe69f32b41009c751ull, 0x2ebffd092fecc2c4ull, 0x1b36a0a69057ee11ull,
      0xd3d6bfe419cac2baull, 0xe35f32d2673f4198ull, 0x6fe7068fe5a004eeull,
      0x6e576fb35b5d03dbull, 0x380e9ea5ea0cf745ull, 0x1c224cad7297ca71ull,
      0xc0f7e17e5e024b5full, 0x8b92f2b80551c0d1ull, 0xed2520e2bf2ba6bfull,
      0x3a3297f70b69d9f3ull, 0xbfe986d63c73e8a9ull, 0x10540fa29e607c2dull,
      0x689fa05b7980affdull, 0x13ea665ebf22447full, 0x069f7dbe91277d3aull,
      0xe102b1ea2cba8da6ull, 0xa619dab3c7f2e133ull, 0xc0e5e2d4f5b2ccffull,
      0xe729ce76e6353385ull, 0x5782189ae774c6d0ull, 0x7baf12bdedf0e62dull,
      0xab49de89479e576aull, 0x292290d609fa0877ull, 0xdc98bc47a59779e8ull,
      0xcfb430efddc3312cull, 0x7a5ff42a198824b0ull, 0x4c484f937e7d135dull,
      0x18d5e30a12ea443bull, 0x05004994ece2d85dull, 0x3295a229208ba09dull,
      0x4b3dedcb443c2ad0ull, 0xfe234fc08a53812dull, 0x824e0a04805d29afull,
      0x29126099d325c091ull},
     "0065376204255554506022234741412063517173155726375052704053550571",
     {552, 312, 62, 533, 827, 87, 982, 546, 232, 596, 978, 421, 549, 293, 909,
      100, 757, 952, 806, 936, 962, 642, 546, 947, 372, 39, 28, 969, 852, 673,
      106, 560, 902, 643, 325, 81, 311, 993, 823, 827, 113, 45, 541, 279, 442,
      990, 275, 871, 173, 888, 597, 170, 879, 320, 668, 976, 357, 83, 637, 925,
      24, 205, 959, 673},
     {0x1.08ba9d03425dcp-2, 0x1.c0c560c3685c5p-1, 0x1.681c7f164c21p-2,
      0x1.334ef8ed3ccp-8, 0x1.c8b97ad45b3d2p-1, 0x1.de0ff420d2f94p-3,
      0x1.80007657aeef6p-2, 0x1.415dc016b6606p-1, 0x1.3c4791aea299ep-1,
      0x1.f8f36ceb434edp-1, 0x1.a860f2fd632a4p-1, 0x1.763078e3010bcp-2,
      0x1.8864bce5304a4p-2, 0x1.6cd091c42141ep-1, 0x1.68e9759276d5cp-3,
      0x1.e514caf2b1a08p-2, 0x1.76fa3e9bf3cbfp-1, 0x1.98e434f6d9b8ap-2,
      0x1.e1f00ce3c3a8cp-1, 0x1.0a852b0d88c4ep-2, 0x1.9f1b3eb36453p-1,
      0x1.11b06af089a52p-2, 0x1.c0ab1b98b522cp-3, 0x1.f83cccf1de5efp-1,
      0x1.17fec5ae4266ap-2, 0x1.4e45d31da686p-5, 0x1.a9b4eca17bcd4p-2,
      0x1.cd3e656820138p-1, 0x1.75ffe8497f66p-3, 0x1.b36a0a69057e8p-4,
      0x1.a7ad7fc833958p-1, 0x1.c6be65a4ce7e8p-1, 0x1.bf9c1a3f968p-2,
      0x1.b95dbecd6d74p-2, 0x1.c074f52f50678p-3, 0x1.c224cad7297c8p-4,
      0x1.81efc2fcbc049p-1, 0x1.1725e5700aa38p-1, 0x1.da4a41c57e574p-1,
      0x1.d194bfb85b4ecp-3, 0x1.7fd30dac78e7dp-1, 0x1.0540fa29e6078p-4,
      0x1.a27e816de602ap-2, 0x1.3ea665ebf224p-4, 0x1.a7df6fa449dep-6,
      0x1.c20563d459751p-1, 0x1.4c33b5678fe5cp-1, 0x1.81cbc5a9eb659p-1,
      0x1.ce539cedcc6a6p-1, 0x1.5e08626b9dd3p-2, 0x1.eebc4af7b7c38p-2,
      0x1.5693bd128f3cap-1, 0x1.491486b04fd04p-3, 0x1.b931788f4b2efp-1,
      0x1.9f6861dfbb866p-1, 0x1.e97fd0a866208p-2, 0x1.31213e4df9f44p-2,
      0x1.8d5e30a12ea4p-4, 0x1.4012653b38b6p-6, 0x1.94ad1149045dp-3,
      0x1.2cf7b72d10f0ap-2, 0x1.fc469f8114a7p-1, 0x1.049c140900ba5p-1,
      0x1.489304ce992ep-3},
     "1001010000000010000101101100110000110001010110000000100011111001",
     {2, 10, 2, 1, 10, 2, 3, 5, 5, 20, 8, 3, 3, 6, 1, 3, 6, 3, 13, 2, 8, 2, 2,
      19, 2, 1, 3, 11, 1, 1, 8, 10, 3, 3, 2, 1, 7, 4, 12, 2, 7, 1, 3, 1, 1, 10,
      5, 7, 11, 2, 3, 5, 1, 9, 8, 3, 2, 1, 1, 1, 2, 23, 4, 1}}};

TEST(Rng, SequenceIsPinned)
{
    for (const RngPin &pin : kRngPins) {
        SCOPED_TRACE(strFormat("seed %#llx",
                               static_cast<unsigned long long>(pin.seed)));
        Rng next(pin.seed), range8(pin.seed), range1000(pin.seed),
            uniform(pin.seed), chance(pin.seed), geometric(pin.seed);
        for (int i = 0; i < 64; ++i) {
            SCOPED_TRACE("draw " + std::to_string(i));
            EXPECT_EQ(next.next(), pin.next[i]);
            EXPECT_EQ(range8.range(8),
                      static_cast<std::uint64_t>(pin.range8[i] - '0'));
            EXPECT_EQ(range1000.range(1000), pin.range1000[i]);
            EXPECT_EQ(uniform.uniform(), pin.uniform[i]);
            EXPECT_EQ(chance.chance(0.3), pin.chance30[i] == '1');
            EXPECT_EQ(geometric.geometric(5), pin.geometric5[i]);
        }
    }
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
