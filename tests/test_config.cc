/**
 * @file
 * The knob table (knobs(), src/common/config.hh) drives this suite. For
 * every SimConfig knob: each end of its range parses and either
 * validates or meets a cross-knob rule, one past each end is refused
 * naming the flag, another value moves the config fingerprint (but
 * --cycle-skip's), and a short run at each end keeps the machine's
 * invariants after every step. Then every latency knob and both MSHR
 * counts at their maximums, on each backend, under the deadlock guard.
 */

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <variant>

#include "common/config.hh"
#include "core/snapshot.hh"
#include "harness/cli.hh"
#include "test_util.hh"

using namespace mtdae;
using namespace mtdae::test;

namespace {

/** @p base with knob @p k set from its CLI spelling @p value. */
SimConfig
with(const Knob &k, const std::string &value, SimConfig base = {})
{
    std::string error;
    EXPECT_TRUE(cli::applyOverride(base, k.key, value, error))
        << k.key << "=" << value << ": " << error;
    return base;
}

/** True when @p a and @p b differ in knob @p k's member. */
bool
differ(const Knob &k, const SimConfig &a, const SimConfig &b)
{
    return std::visit([&](auto f) { return a.*f != b.*f; }, k.field);
}

/** The values one past each end of @p k's range its type can hold. */
std::vector<std::uint64_t>
outOfRange(const Knob &k)
{
    std::vector<std::uint64_t> out;
    const bool numeric = std::visit(
        [](auto f) {
            using T = std::decay_t<decltype(SimConfig{}.*f)>;
            return !std::is_same_v<T, bool> && !std::is_enum_v<T>;
        },
        k.field);
    if (!numeric)
        return out;
    const std::uint64_t type_max =
        std::holds_alternative<std::uint64_t SimConfig::*>(k.field)
            ? std::numeric_limits<std::uint64_t>::max()
            : std::numeric_limits<std::uint32_t>::max();
    if (k.min > 0)
        out.push_back(k.min - 1);
    if (k.max < type_max)
        out.push_back(k.max + 1);
    return out;
}

class KnobTest : public ::testing::TestWithParam<std::size_t>
{
  protected:
    const Knob &k = knobs()[GetParam()];
};

TEST_P(KnobTest, EachEndValidatesOrMeetsACrossKnobRule)
{
    for (const std::string &value : knobSpellings(k)) {
        const SimConfig cfg = with(k, value);
        EXPECT_EQ(k.check(cfg), "") << value;
        try {
            cfg.validate();
        } catch (const ConfigError &e) {
            // A rule that spans knobs (geometry, policy seams), never a
            // range: the range accepted the value.
            EXPECT_STRNE(e.what(), "") << value;
            EXPECT_EQ(std::string(e.what()).find("--"), std::string::npos)
                << value << ": " << e.what();
            continue;
        }
        Simulator sim = makeSim(cfg, streamingKernel(), 2);
        EXPECT_TRUE(drain(sim, true)) << k.key << "=" << value;
    }
}

TEST_P(KnobTest, OnePastEachEndIsRefusedNamingTheFlag)
{
    const std::string flag = std::string("--") + k.key;
    std::vector<std::string> bad = {"x"};
    for (const std::uint64_t v : outOfRange(k))
        bad.push_back(std::to_string(v));
    for (const std::string &value : bad) {
        SimConfig cfg;
        std::string error;
        EXPECT_FALSE(cli::applyOverride(cfg, k.key, value, error)) << value;
        EXPECT_NE(error.find(flag), std::string::npos) << error;
    }
    // validate() refuses the same values set without the CLI.
    for (const std::uint64_t v : outOfRange(k)) {
        SimConfig cfg;
        std::visit(
            [&](auto f) {
                auto &m = cfg.*f;
                using T = std::decay_t<decltype(m)>;
                if constexpr (std::is_same_v<T, std::vector<std::uint32_t>>)
                    m = {1, std::uint32_t(v)};
                else if constexpr (std::is_integral_v<T>)
                    m = T(v);
            },
            k.field);
        EXPECT_THROW(withMessage([&] { cfg.validate(); }, flag),
                     ConfigError);
    }
}

TEST_P(KnobTest, AnotherValueMovesTheFingerprint)
{
    const SimConfig base;
    bool moved = false;
    for (const std::string &value : knobSpellings(k)) {
        const SimConfig cfg = with(k, value);
        if (!differ(k, cfg, base))
            continue;
        moved = true;
        // --cycle-skip is an execution strategy: a skip-on run may warm
        // start from a skip-off checkpoint.
        EXPECT_EQ(configFingerprint(cfg) != configFingerprint(base),
                  k.fingerprinted)
            << k.key << "=" << value;
    }
    EXPECT_TRUE(moved) << "no spelling of --" << k.key << " moves it";
}

INSTANTIATE_TEST_SUITE_P(Knobs, KnobTest,
                         ::testing::Range<std::size_t>(0, knobs().size()),
                         [](const auto &info) {
                             return std::string(knobs()[info.param].member);
                         });

TEST(KnobTable, DeclaresEveryMemberOnceInDeclarationOrder)
{
    // Row by row, each member starts where the one before ends, up to
    // its own alignment, and the last one ends the struct: a member the
    // table missed would leave a gap (only a bool could hide in
    // padding), and a row out of order would go backwards.
    const SimConfig cfg;
    const auto *base = reinterpret_cast<const char *>(&cfg);
    std::size_t end = 0;
    std::set<std::string> keys;
    for (const Knob &k : knobs()) {
        EXPECT_TRUE(keys.insert(k.key).second) << k.key;
        std::visit(
            [&](auto f) {
                const auto &m = cfg.*f;
                const std::size_t at =
                    std::size_t(reinterpret_cast<const char *>(&m) - base);
                EXPECT_GE(at, end) << k.member;
                EXPECT_LT(at - end, alignof(decltype(m))) << k.member;
                end = at + sizeof(m);
            },
            k.field);
    }
    EXPECT_LT(sizeof(SimConfig) - end, alignof(SimConfig));
    EXPECT_EQ(findKnob("warmup-insts"), nullptr);  // a CLI alias only
}

class MaxLatencyTest : public ::testing::TestWithParam<bool>
{
};

TEST_P(MaxLatencyTest, RunsWithoutTrippingTheDeadlockGuard)
{
    // Every latency and both MSHR counts at their maximums; four
    // streaming contexts keep many misses in flight, so the oldest
    // waits behind the others' DRAM row conflicts and line transfers.
    SimConfig cfg = testConfig(4);
    cfg.warmupInsts = 0;
    cfg.perfectL2 = GetParam();
    for (const Knob &k : knobs())
        if (k.max == kMaxLatency || k.key == std::string("mshrs") ||
            k.key == std::string("l2-mshrs"))
            cfg = with(k, std::to_string(k.max), cfg);
    Simulator sim = makeSim(cfg, streamingKernel(), 40);
    const RunResult r = sim.run(std::uint64_t(1) << 40);
    EXPECT_TRUE(sim.allDone());
    EXPECT_EQ(r.insts, 4 * 40 * streamingKernel().ops.size());
    EXPECT_EQ(sim.checkInvariants(), "");
}

INSTANTIATE_TEST_SUITE_P(Backends, MaxLatencyTest, ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "PerfectL2" : "FiniteL2";
                         });

} // namespace
