/**
 * @file
 * Unit tests for the common infrastructure: RNG, statistics primitives,
 * table/CSV output and the machine configuration.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.hh"
#include "common/ring.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "test_util.hh"

using namespace mtdae;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformRespectsBound)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.uniform(13), 13u);
    EXPECT_EQ(r.uniform(0), 0u);
    EXPECT_EQ(r.uniform(1), 0u);
}

TEST(Rng, UniformDoubleInUnitInterval)
{
    Rng r(9);
    double sum = 0.0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = r.uniformDouble();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng r(11);
    int hits = 0;
    constexpr int n = 50000;
    for (int i = 0; i < n; ++i)
        hits += r.bernoulli(0.3);
    EXPECT_NEAR(double(hits) / n, 0.3, 0.02);
}

TEST(RunningStat, Aggregates)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    s.sample(2.0);
    s.sample(4.0);
    s.sample(6.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 6.0);
    EXPECT_DOUBLE_EQ(s.sum(), 12.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(4, 10);  // [0,10) [10,20) [20,30) [30,inf)
    h.sample(0);
    h.sample(9);
    h.sample(10);
    h.sample(25);
    h.sample(1000);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 1u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.total(), 5u);
    EXPECT_NEAR(h.mean(), (0 + 9 + 10 + 25 + 1000) / 5.0, 1e-9);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
}

TEST(RatioStat, Value)
{
    RatioStat r;
    EXPECT_DOUBLE_EQ(r.value(), 0.0);
    r.event(true);
    r.event(false);
    r.event(false);
    r.event(true);
    EXPECT_DOUBLE_EQ(r.value(), 0.5);
    r.reset();
    EXPECT_EQ(r.den, 0u);
}

TEST(TextTable, AlignsColumns)
{
    TextTable t;
    t.addRow({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
    EXPECT_EQ(t.rows(), 3u);
}

TEST(TextTable, FormatsDoubles)
{
    EXPECT_EQ(TextTable::fmt(1.2345, 2), "1.23");
    EXPECT_EQ(TextTable::fmt(1.0, 0), "1");
    EXPECT_EQ(TextTable::fmt(-0.5, 1), "-0.5");
}

TEST(CsvWriter, WritesRows)
{
    const std::string path = ::testing::TempDir() + "/mtdae_test.csv";
    {
        CsvWriter w(path);
        ASSERT_TRUE(w.enabled());
        w.row({"a", "b", "c"});
        w.row({"1", "2", "3"});
    }
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "a,b,c");
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "1,2,3");
    std::remove(path.c_str());
}

TEST(Ring, WrapsAroundAtACapacityThatIsNotAPowerOfTwo)
{
    Ring<int> r(5);
    EXPECT_EQ(r.capacity(), 5u);
    EXPECT_TRUE(r.empty());
    int next = 0;
    int oldest = 0;
    // Three in flight while the head laps the storage several times.
    for (int step = 0; step < 23; ++step) {
        while (r.size() < 3)
            r.push_back(next++);
        EXPECT_EQ(r.front(), oldest);
        EXPECT_EQ(r.back(), next - 1);
        for (std::size_t i = 0; i < r.size(); ++i)
            EXPECT_EQ(r[i], oldest + int(i));
        r.pop_front();
        oldest += 1;
    }
    // Filled to capacity across the wrap, it iterates oldest first.
    while (r.size() < r.capacity())
        r.push_back(next++);
    std::vector<int> seen;
    for (const int v : r)
        seen.push_back(v);
    EXPECT_EQ(seen, (std::vector<int>{oldest, oldest + 1, oldest + 2,
                                      oldest + 3, oldest + 4}));
    EXPECT_DEATH(r.push_back(0), "full ring");
    r.clear();
    EXPECT_TRUE(r.empty());
}

TEST(Ring, ElementsKeepTheirAddressAcrossOtherPushesAndPops)
{
    Ring<std::uint64_t> r(7);
    for (std::uint64_t v = 0; v < 5; ++v)
        r.push_back(v);
    const std::uint64_t *third = &r[2];
    for (std::uint64_t k = 0; k < 2; ++k) {
        r.pop_front();
        r.push_back(100 + k);
    }
    r.push_back(200);
    r.push_back(201);  // the storage is full and has wrapped
    EXPECT_EQ(&r.front(), third);
    EXPECT_EQ(*third, 2u);
    EXPECT_EQ(r.back(), 201u);
}

TEST(Ring, IndexOfCountsFromTheFrontAfterWrapping)
{
    Ring<std::uint32_t> r(6);
    for (std::uint32_t v = 0; v < 6; ++v)
        r.push_back(v);
    for (std::uint32_t v = 6; v < 10; ++v) {
        r.pop_front();
        r.push_back(v);  // the head moves to the fifth slot
    }
    for (std::size_t i = 0; i < r.size(); ++i) {
        EXPECT_EQ(r.indexOf(&r[i]), i);
        EXPECT_EQ(r[i], 4 + i);
    }
    r.pop_front();
    EXPECT_EQ(r.indexOf(&r.back()), 4u);
}

TEST(SimConfig, DefaultsAreThePaperMachine)
{
    const SimConfig cfg;
    EXPECT_EQ(cfg.apUnits, 4u);
    EXPECT_EQ(cfg.epUnits, 4u);
    EXPECT_EQ(cfg.apLatency, 1u);
    EXPECT_EQ(cfg.epLatency, 4u);
    EXPECT_EQ(cfg.iqEntries, 48u);
    EXPECT_EQ(cfg.saqEntries, 32u);
    EXPECT_EQ(cfg.apPhysRegs, 64u);
    EXPECT_EQ(cfg.epPhysRegs, 96u);
    EXPECT_EQ(cfg.l1Bytes, 64u * 1024);
    EXPECT_EQ(cfg.l1LineBytes, 32u);
    EXPECT_EQ(cfg.l1Ports, 4u);
    EXPECT_EQ(cfg.mshrs, 16u);
    EXPECT_EQ(cfg.l2Latency, 16u);
    EXPECT_EQ(cfg.busBytesPerCycle, 16u);
    EXPECT_EQ(cfg.bhtEntries, 2048u);
    EXPECT_EQ(cfg.maxUnresolvedBranches, 4u);
    EXPECT_EQ(cfg.fetchThreadsPerCycle, 2u);
    EXPECT_EQ(cfg.fetchWidth, 8u);
    EXPECT_TRUE(cfg.decoupled);
    EXPECT_NO_FATAL_FAILURE(cfg.validate());
}

TEST(SimConfig, LineTransferCycles)
{
    SimConfig cfg;
    EXPECT_EQ(cfg.lineTransferCycles(), 2u);  // 32B line / 16B per cycle
    cfg.busBytesPerCycle = 8;
    EXPECT_EQ(cfg.lineTransferCycles(), 4u);
    cfg.busBytesPerCycle = 64;
    EXPECT_EQ(cfg.lineTransferCycles(), 1u);
}

class ScaledConfigTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(ScaledConfigTest, ScalesProportionallyToLatency)
{
    const std::uint32_t lat = GetParam();
    const SimConfig base;
    const SimConfig c = base.scaledForLatency(lat);
    const std::uint32_t factor = std::max(1u, lat / 16u);
    EXPECT_EQ(c.l2Latency, lat);
    EXPECT_EQ(c.iqEntries, base.iqEntries * factor);
    EXPECT_EQ(c.saqEntries, base.saqEntries * factor);
    EXPECT_EQ(c.robEntries, base.robEntries * factor);
    // Only registers beyond the architectural 32 scale.
    EXPECT_EQ(c.apPhysRegs, 32u + (base.apPhysRegs - 32u) * factor);
    EXPECT_EQ(c.epPhysRegs, 32u + (base.epPhysRegs - 32u) * factor);
    // MSHRs scale but stay implementable.
    EXPECT_LE(c.mshrs, 64u);
    EXPECT_GE(c.mshrs, base.mshrs);
    EXPECT_NO_FATAL_FAILURE(c.validate());
}

INSTANTIATE_TEST_SUITE_P(PaperLatencies, ScaledConfigTest,
                         ::testing::Values(1, 16, 32, 64, 128, 256));

TEST(SimConfig, ValidateRejectsBadConfigs)
{
    // A bad config is a typed, catchable error: the caller reports it as
    // a usage error instead of the library exiting the process.
    SimConfig cfg;
    const auto validate = [&cfg] { cfg.validate(); };
    cfg.numThreads = 0;
    EXPECT_THROW(test::withMessage(validate, "numThreads"), ConfigError);

    cfg = SimConfig{};
    cfg.l1LineBytes = 24;  // not a power of two
    EXPECT_THROW(test::withMessage(validate, "l1LineBytes"), ConfigError);

    cfg = SimConfig{};
    cfg.apPhysRegs = 32;  // no rename headroom
    EXPECT_THROW(test::withMessage(validate, "apPhysRegs"), ConfigError);

    cfg = SimConfig{};
    cfg.mshrs = 0;
    EXPECT_THROW(test::withMessage(validate, "MSHR"), ConfigError);

    cfg = SimConfig{};
    cfg.bhtEntries = 1000;  // not a power of two
    EXPECT_THROW(test::withMessage(validate, "bht"), ConfigError);

    // Each of these used to pass validate() and then abort the run.
    cfg = SimConfig{};
    cfg.graduateWidth = 0;
    EXPECT_THROW(test::withMessage(validate, "graduateWidth"), ConfigError);

    cfg = SimConfig{};
    cfg.fetchBufferSize = 0;
    EXPECT_THROW(test::withMessage(validate, "fetchBufferSize"),
                 ConfigError);

    cfg = SimConfig{};
    cfg.l1Ports = 0;
    EXPECT_THROW(test::withMessage(validate, "l1Ports"), ConfigError);

    cfg = SimConfig{};
    cfg.maxUnresolvedBranches = 0;
    EXPECT_THROW(test::withMessage(validate, "maxUnresolvedBranches"),
                 ConfigError);

    for (const std::uint32_t bits : {0u, 33u, 40u}) {
        cfg = SimConfig{};
        cfg.predictor = SimConfig::PredictorKind::Gshare;
        cfg.gshareHistoryBits = bits;
        EXPECT_THROW(test::withMessage(validate, "gshareHistoryBits"),
                     ConfigError);
    }
    cfg.gshareHistoryBits = 32;
    EXPECT_NO_THROW(cfg.validate());
}
