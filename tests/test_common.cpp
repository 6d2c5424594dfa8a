/**
 * @file
 * Unit tests for the common substrate: RNG, config, stats, tables,
 * logging.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/config.hh"
#include "common/contracts.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace wormnet
{
namespace
{

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBounded(13), 13u);
}

TEST(Rng, BoundedCoversRange)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.nextRange(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(5);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
    }
}

TEST(Rng, BernoulliMeanApproximatesP)
{
    Rng rng(17);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(hits / double(n), 0.3, 0.02);
}

TEST(Rng, SplitStreamsAreIndependent)
{
    Rng parent(9);
    Rng a = parent.split();
    Rng b = parent.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Config, ParseArgsForms)
{
    const char *argv[] = {"pos", "--alpha", "3", "--beta=hello",
                          "--flag"};
    const Config cfg = Config::parseArgs(5, argv);
    EXPECT_EQ(cfg.getUint("alpha", 0), 3u);
    EXPECT_EQ(cfg.getString("beta"), "hello");
    EXPECT_TRUE(cfg.getBool("flag", false));
    ASSERT_EQ(cfg.positional().size(), 1u);
    EXPECT_EQ(cfg.positional()[0], "pos");
}

TEST(Config, Defaults)
{
    const Config cfg;
    EXPECT_EQ(cfg.getUint("missing", 42), 42u);
    EXPECT_EQ(cfg.getString("missing", "x"), "x");
    EXPECT_DOUBLE_EQ(cfg.getDouble("missing", 2.5), 2.5);
    EXPECT_TRUE(cfg.getBool("missing", true));
}

TEST(Config, ParseString)
{
    const Config cfg = Config::parseString("a=1,b=two,c");
    EXPECT_EQ(cfg.getUint("a", 0), 1u);
    EXPECT_EQ(cfg.getString("b"), "two");
    EXPECT_TRUE(cfg.getBool("c", false));
}

TEST(Config, MalformedBoolIsFatal)
{
    Config cfg;
    cfg.set("b", "maybe");
    EXPECT_THROW(cfg.getBool("b", false), FatalError);
}

TEST(Config, NegativeUintIsFatal)
{
    Config cfg;
    cfg.set("n", "-3");
    EXPECT_THROW(cfg.getUint("n", 0), FatalError);
}

TEST(Config, UintRejectsSignsTrailingAndOverflow)
{
    EXPECT_EQ(parseUintOption("n", "0"), 0u);
    EXPECT_EQ(parseUintOption("n", "007"), 7u);
    EXPECT_EQ(parseUintOption("n", "18446744073709551615"),
              UINT64_MAX);
    EXPECT_EQ(parseUintOption("n", "4294967295", UINT32_MAX),
              UINT32_MAX);
    for (const char *bad :
         {"", "abc", "+1", "-1", " 1", "1 ", "1x", "1.5", "0x10",
          "18446744073709551616"})
        EXPECT_THROW(parseUintOption("n", bad), FatalError) << bad;
    EXPECT_THROW(parseUintOption("n", "4294967296", UINT32_MAX),
                 FatalError);

    Config cfg;
    cfg.set("n", "12abc");
    EXPECT_THROW(cfg.getUint("n", 0), FatalError);
}

TEST(Config, DoubleRejectsSignsTrailingAndOverflow)
{
    EXPECT_DOUBLE_EQ(parseDoubleOption("x", "0.25"), 0.25);
    EXPECT_DOUBLE_EQ(parseDoubleOption("x", ".5"), 0.5);
    EXPECT_DOUBLE_EQ(parseDoubleOption("x", "1e-5"), 1e-5);
    EXPECT_DOUBLE_EQ(parseDoubleOption("x", "3"), 3.0);
    for (const char *bad : {"", "abc", "+0.5", "-0.5", " 1", "1 ",
                            "0.5x", "1e999", "inf", "nan", "0x1p3"})
        EXPECT_THROW(parseDoubleOption("x", bad), FatalError) << bad;

    Config cfg;
    cfg.set("x", "0.2.1");
    EXPECT_THROW(cfg.getDouble("x", 0.0), FatalError);
}

TEST(Config, BoolSynonyms)
{
    Config cfg;
    for (const char *t : {"true", "1", "yes", "on", "TRUE"}) {
        cfg.set("b", t);
        EXPECT_TRUE(cfg.getBool("b", false)) << t;
    }
    for (const char *f : {"false", "0", "no", "off", "OFF"}) {
        cfg.set("b", f);
        EXPECT_FALSE(cfg.getBool("b", true)) << f;
    }
}

TEST(RunningStat, Basics)
{
    RunningStat s;
    for (const double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(RunningStat, EmptyIsZero)
{
    const RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, ResetClears)
{
    RunningStat s;
    s.add(10.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(10, 4);
    h.add(0);
    h.add(9);
    h.add(10);
    h.add(39);
    h.add(40); // overflow
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.overflow(), 1u);
}

TEST(Histogram, QuantileMonotone)
{
    Histogram h(1, 100);
    for (unsigned i = 0; i < 100; ++i)
        h.add(i);
    EXPECT_LE(h.quantile(0.25), h.quantile(0.5));
    EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
    EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
}

TEST(TextTable, RendersAligned)
{
    TextTable t(3);
    t.addRow({"name", "a", "bb"});
    t.addSeparator();
    t.addRow({"x", "100", "2"});
    const std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("100"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, WrongArityPanics)
{
    TextTable t(2);
    EXPECT_THROW(t.addRow({"only-one"}), PanicError);
}

TEST(TextTable, CsvEscapes)
{
    TextTable t(2);
    t.addRow({"a,b", "c\"d"});
    const std::string csv = t.renderCsv();
    EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
    EXPECT_NE(csv.find("\"c\"\"d\""), std::string::npos);
}

TEST(PaperFormat, MatchesPaperStyle)
{
    EXPECT_EQ(formatPercentPaperStyle(0.0), ".000");
    EXPECT_EQ(formatPercentPaperStyle(0.00055), ".055");
    EXPECT_EQ(formatPercentPaperStyle(0.0191), "1.91");
    EXPECT_EQ(formatPercentPaperStyle(0.26), "26.0");
}

TEST(Log, FatalThrows)
{
    EXPECT_THROW(fatal("boom ", 1), FatalError);
}

TEST(Log, PanicThrows)
{
    EXPECT_THROW(panic("bug"), PanicError);
}

TEST(Log, AssertMacro)
{
    EXPECT_NO_THROW(WORMNET_ASSERT(1 + 1 == 2));
    EXPECT_THROW(WORMNET_ASSERT(false, " details"), PanicError);
}

} // namespace
} // namespace wormnet
