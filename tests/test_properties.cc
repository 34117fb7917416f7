/**
 * @file
 * Property-based tests: randomly generated (but structurally valid)
 * kernels must run to completion on any machine configuration with all
 * conservation and accounting invariants intact.
 */

#include <deque>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/event_queue.hh"
#include "core/snapshot.hh"
#include "tests/test_util.hh"
#include "workload/dsl/ast.hh"
#include "workload/dsl/interp.hh"
#include "workload/dsl/lexer.hh"
#include "workload/dsl/parser.hh"

using namespace mtdae;
using namespace mtdae::test;

namespace {

/**
 * Generate a random, valid kernel: a few streams, loads, a layer of FP
 * and integer ops on previously defined values (some of them
 * three-source FMAs), optional store and hammock.
 */
Kernel
randomKernel(std::uint64_t seed)
{
    Rng rng(seed);
    // Its own stream, so the FMA choice leaves every other draw as it
    // was.
    Rng fma(deriveSeed(0x666d61, seed));
    KernelBuilder b;

    const int n_streams = 1 + int(rng.uniform(3));
    std::vector<KernelBuilder::Stream> streams;
    for (int i = 0; i < n_streams; ++i) {
        const std::uint64_t fp = 4096u << rng.uniform(10);  // 4KB..4MB
        const std::int64_t stride = 4 << rng.uniform(4);    // 4..32
        streams.push_back(b.strided(fp, stride));
    }

    std::vector<int> ints, fps;
    for (const auto &s : streams) {
        if (rng.bernoulli(0.7))
            fps.push_back(b.ldf(s));
        else
            ints.push_back(b.ldi(s));
    }
    if (fps.empty())
        fps.push_back(b.movif(ints.front()));

    const int n_ops = 2 + int(rng.uniform(12));
    for (int i = 0; i < n_ops; ++i) {
        if (rng.bernoulli(0.6)) {
            const int a = fps[rng.uniform(fps.size())];
            const int c = fps[rng.uniform(fps.size())];
            static const Opcode fop[] = {Opcode::FAdd, Opcode::FMul,
                                         Opcode::FSub, Opcode::FDiv};
            if (fps.size() < 24) {
                const Opcode op = fop[rng.uniform(4)];
                fps.push_back(fma.bernoulli(0.3)
                                  ? b.fop(Opcode::FMA, a, c,
                                          fps[fma.uniform(fps.size())])
                                  : b.fop(op, a, c));
            }
        } else {
            static const Opcode iop[] = {Opcode::IAdd, Opcode::IShift,
                                         Opcode::ILogic, Opcode::IMul};
            if (!ints.empty() && ints.size() < 20) {
                const int a = ints[rng.uniform(ints.size())];
                ints.push_back(b.iop(iop[rng.uniform(4)], a));
            } else {
                ints.push_back(b.iop(Opcode::IAdd,
                                     streams[0].addrReg));
            }
        }
    }

    if (rng.bernoulli(0.5))
        b.stf(streams[rng.uniform(streams.size())],
              fps[rng.uniform(fps.size())]);
    if (rng.bernoulli(0.4)) {
        const int c = b.iop(Opcode::ICmp, streams[0].addrReg);
        b.br(c, float(rng.uniformDouble()), 1);
        b.iopInto(Opcode::IAdd, c, c);
    }
    for (auto &s : streams)
        if (rng.bernoulli(0.8))
            b.advance(s);
    return b.build("random-" + std::to_string(seed));
}

} // namespace

class RandomKernelTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomKernelTest, RunsToCompletionWithInvariants)
{
    const Kernel k = randomKernel(GetParam());
    ASSERT_NO_FATAL_FAILURE(k.validate());

    SimConfig cfg = testConfig(1 + GetParam() % 3);
    cfg.decoupled = GetParam() % 2 == 0;
    cfg.l2Latency = GetParam() % 5 == 0 ? 64 : 16;
    cfg.warmupInsts = 0;

    const std::uint64_t iters = 400;
    Simulator sim = makeSim(cfg, k, iters);
    ASSERT_TRUE(drain(sim, true)) << k.name;

    // Conservation: every fetched instruction graduates exactly once
    // (the trace is finite and known-length per iteration modulo
    // hammocks, so compare against per-thread emission).
    std::uint64_t expected = 0;
    for (ThreadId t = 0; t < cfg.numThreads; ++t) {
        const auto *src = dynamic_cast<const KernelTraceSource *>(
            sim.context(t).source.get());
        ASSERT_NE(src, nullptr);
        expected += src->emitted();
    }
    EXPECT_EQ(sim.totalGraduated(), expected);

    // Slot accounting covers exactly width x cycles.
    const RunResult r = sim.snapshot();
    EXPECT_EQ(r.ap.total(), r.cycles * cfg.apUnits);
    EXPECT_EQ(r.ep.total(), r.cycles * cfg.epUnits);
    EXPECT_LE(r.ap.count(SlotUse::Useful) + r.ep.count(SlotUse::Useful),
              sim.totalGraduated());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomKernelTest,
                         ::testing::Range(std::uint64_t(1),
                                          std::uint64_t(25)));

class GridTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, bool, std::uint32_t>>
{
};

TEST_P(GridTest, SuiteMixRunsEverywhereOnTheGrid)
{
    const auto [threads, decoupled, lat] = GetParam();
    SimConfig cfg = testConfig(threads, decoupled, lat);
    Simulator sim = makeSim(cfg, streamingKernel());
    const RunResult r = sim.run(15000 * threads);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_LE(r.ipc, 8.0);
    EXPECT_GE(r.insts, 15000u * threads);
    EXPECT_LE(r.busUtilization, 1.05);
    EXPECT_GE(r.perceivedAll, 0.0);
    EXPECT_LE(r.perceivedFp, lat + 8.0);
    EXPECT_LE(r.perceivedInt, lat + 8.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GridTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Bool(),
                       ::testing::Values(1u, 16u, 64u)));

class MshrSweepTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(MshrSweepTest, FewerMshrsNeverHelp)
{
    SimConfig cfg = testConfig(2, true, 64);
    cfg.mshrs = GetParam();
    Simulator sim = makeSim(cfg, streamingKernel());
    const double ipc = sim.run(40000).ipc;

    SimConfig big = cfg;
    big.mshrs = 64;
    Simulator sim_big = makeSim(big, streamingKernel());
    const double ipc_big = sim_big.run(40000).ipc;
    EXPECT_GE(ipc_big, 0.98 * ipc) << "mshrs=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Mshrs, MshrSweepTest,
                         ::testing::Values(1, 2, 4, 8, 16));

class CheckpointFuzzTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CheckpointFuzzTest, RestoreEquivalenceAtRandomCycles)
{
    // Fuzz the checkpoint engine (src/core/snapshot.hh): a random
    // kernel on a random machine, snapshotted at random cycles, must
    // always restore into a byte-identical continuation. All
    // randomness is derived from the test seed — never wall clock —
    // so every failure replays.
    const std::uint64_t seed = GetParam();
    Rng rng(deriveSeed(0x636b7074, seed));
    const Kernel k = randomKernel(seed);

    SimConfig cfg = testConfig(1 + rng.uniform(3));
    cfg.decoupled = rng.bernoulli(0.7);
    cfg.perfectL2 = rng.bernoulli(0.5);
    cfg.fetchPolicy = fetchPolicies()[rng.uniform(fetchPolicies().size())];
    cfg.issuePolicy = issuePolicies()[rng.uniform(issuePolicies().size())];
    // QoS state must round-trip too: random weights and a random
    // adaptive gate threshold (the registries above already draw the
    // adaptive/weighted policies that consume them).
    if (rng.bernoulli(0.5))
        cfg.threadWeights = {1 + std::uint32_t(rng.uniform(16)),
                             1 + std::uint32_t(rng.uniform(16))};
    cfg.adaptiveMissThreshold = 1 + std::uint32_t(rng.uniform(3));
    cfg.warmupInsts = 0;

    const std::uint64_t iters = 150;
    Simulator ref = makeSim(cfg, k, iters);
    ASSERT_TRUE(drain(ref, true)) << k.name;
    const auto ref_final = ref.saveSnapshot().toBytes();

    for (int trial = 0; trial < 3; ++trial) {
        const std::uint64_t cycle = rng.uniform(ref.now() + 1);
        Simulator a = makeSim(cfg, k, iters);
        for (std::uint64_t c = 0; c < cycle; ++c) {
            a.step();
            ASSERT_EQ(a.checkInvariants(), "") << k.name;
        }
        const Snapshot snap = a.saveSnapshot();

        // Serialize -> deserialize -> serialize is byte-stable.
        const auto bytes1 = snap.toBytes();
        EXPECT_EQ(Snapshot::fromBytes(bytes1).toBytes(), bytes1);

        // Restore-equivalence: the restored run finishes in the same
        // state as the uninterrupted one, byte for byte.
        Simulator b = makeSim(cfg, k, iters);
        b.restoreSnapshot(snap);
        ASSERT_EQ(b.checkInvariants(), "") << k.name << " restored";
        EXPECT_EQ(b.saveSnapshot().toBytes(), bytes1)
            << k.name << " at cycle " << cycle;
        ASSERT_TRUE(drain(b, true)) << k.name;
        EXPECT_EQ(b.now(), ref.now())
            << k.name << " at cycle " << cycle;
        EXPECT_EQ(b.saveSnapshot().toBytes(), ref_final)
            << k.name << " at cycle " << cycle;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointFuzzTest,
                         ::testing::Range(std::uint64_t(1),
                                          std::uint64_t(17)));

class PortSweepTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(PortSweepTest, RunsCorrectlyWithAnyPortCount)
{
    SimConfig cfg = testConfig(2);
    cfg.l1Ports = GetParam();
    Simulator sim = makeSim(cfg, streamingKernel(), 2000);
    ASSERT_TRUE(drain(sim));
    EXPECT_EQ(sim.totalGraduated(),
              2 * streamingKernel().ops.size() * 2000);
}

INSTANTIATE_TEST_SUITE_P(Ports, PortSweepTest,
                         ::testing::Values(1, 2, 4, 8));

class LiveKeyFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LiveKeyFuzzTest, LiveKeysMatchRecomputation)
{
    // Fuzz the derived state (Simulator::checkInvariants): on a random
    // kernel and machine, under every fetch and issue policy — gating
    // included, since flush mutates fetch state outside the normal
    // stages — and with few MSHRs, so loads and stores wait for the L1,
    // every live key, stage set, waiting head, cached stall class and
    // index must agree with its from-scratch rule, every single cycle.
    // A few save/restore round trips check what restore rebuilds.
    const std::uint64_t seed = GetParam();
    Rng rng(deriveSeed(0x73636163, seed));
    const Kernel k = randomKernel(seed);

    SimConfig cfg = testConfig(1 + rng.uniform(4));
    cfg.decoupled = rng.bernoulli(0.7);
    cfg.l2Latency = rng.bernoulli(0.5) ? 64 : 16;
    cfg.perfectL2 = rng.bernoulli(0.7);
    cfg.mshrs = 1 + std::uint32_t(rng.uniform(8));
    cfg.fetchPolicy = fetchPolicies()[seed % fetchPolicies().size()];
    cfg.issuePolicy =
        issuePolicies()[(seed / fetchPolicies().size()) %
                        issuePolicies().size()];
    if (rng.bernoulli(0.5))
        for (ThreadId t = 0; t < cfg.numThreads; ++t)
            cfg.threadWeights.push_back(1 + std::uint32_t(rng.uniform(4)));
    cfg.warmupInsts = 0;
    cfg.validate();

    Simulator sim = makeSim(cfg, k, 200);
    // Now and then a save/restore round trip rebuilds the derived
    // state (keys, waiters, classes, miss-window runs) mid-run; its own
    // stream leaves the configuration draws as they were.
    Rng restores(deriveSeed(0x72657374, seed));
    std::uint64_t steps = 0;
    while (!sim.allDone()) {
        sim.step();
        ASSERT_LT(++steps, 4000000u) << "deadlock in " << k.name;
        if (restores.bernoulli(0.0005))
            sim.restoreSnapshot(sim.saveSnapshot());
        ASSERT_EQ(sim.checkInvariants(), "") << k.name;
    }
}

// One seed per fetch x issue policy pair.
INSTANTIATE_TEST_SUITE_P(Seeds, LiveKeyFuzzTest,
                         ::testing::Range(std::uint64_t(0),
                                          std::uint64_t(48)));

class WindowOracleTest : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    /**
     * Fuzz the trailing-window statistics (Context::syncWindows): on a
     * random kernel and machine under the @p fetch / @p issue policy
     * pair, at cycles up to @p max_gap apart (so that windows no policy
     * reads stay lazy in between), once Simulator::saveSnapshot() has
     * brought every context's windows up to the current cycle, the
     * rings must hold, oldest first, the IQ occupancy and
     * outstanding-miss count each of the last 64 cycles ended with —
     * as the test samples them itself after every step — and the
     * incrementally maintained sums, live keys and miss-window
     * uniformity tracker must agree with them (checkInvariants).
     * The uniformity check is the load-bearing one for the adaptive
     * policy — its vetoStable() reads it, and a stale bit silently
     * breaks idle fast-forward byte-identity rather than any
     * assertion; the sample values are what a snapshot serializes.
     */
    void
    checkWindows(PolicyKind fetch, PolicyKind issue, std::uint64_t max_gap)
    {
        const std::uint64_t seed = GetParam();
        Rng rng(deriveSeed(0x77696e64, seed));
        const Kernel k = randomKernel(seed);

        SimConfig cfg = testConfig(1 + rng.uniform(3));
        cfg.decoupled = rng.bernoulli(0.7);
        cfg.fetchPolicy = fetch;
        cfg.issuePolicy = issue;
        cfg.adaptiveMissThreshold = 1 + std::uint32_t(rng.uniform(3));
        if (rng.bernoulli(0.5))
            cfg.threadWeights = {1 + std::uint32_t(rng.uniform(16)),
                                 1 + std::uint32_t(rng.uniform(16))};
        cfg.warmupInsts = 0;
        cfg.validate();

        // The reference: every cycle's end-of-cycle values, oldest
        // first, starting from the all-zero rings of a fresh machine.
        constexpr std::uint32_t kWin = Context::kIqWindow;
        std::vector<std::deque<std::uint32_t>> iq_hist(
            cfg.numThreads, std::deque<std::uint32_t>(kWin, 0));
        std::vector<std::deque<std::uint32_t>> miss_hist = iq_hist;

        Rng sched(deriveSeed(0x73796e63, seed));
        std::uint64_t next_check = 1;
        Simulator sim = makeSim(cfg, k, 150);
        std::uint64_t steps = 0;
        while (!sim.allDone()) {
            sim.step();
            ASSERT_LT(++steps, 4000000u) << "deadlock in " << k.name;
            for (ThreadId t = 0; t < cfg.numThreads; ++t) {
                const Context &ctx = sim.context(t);
                iq_hist[t].pop_front();
                iq_hist[t].push_back(std::uint32_t(ctx.iq.size()));
                miss_hist[t].pop_front();
                miss_hist[t].push_back(ctx.perceived.outstanding());
            }
            if (steps < next_check)
                continue;
            next_check = steps + 1 + sched.uniform(max_gap);
            sim.saveSnapshot();  // syncs every context's windows
            for (ThreadId t = 0; t < cfg.numThreads; ++t) {
                const Context &ctx = sim.context(t);
                ASSERT_EQ(ctx.windowsAt, sim.now());
                for (std::uint32_t age = 0; age < kWin; ++age) {
                    const std::uint32_t iq =
                        ctx.iqSamples[(ctx.iqSampleAt + age) % kWin];
                    const std::uint32_t miss =
                        ctx.missSamples[(ctx.missSampleAt + age) % kWin];
                    ASSERT_EQ(iq, iq_hist[t][age])
                        << k.name << " t" << t << " age " << age
                        << " at cycle " << sim.now();
                    ASSERT_EQ(miss, miss_hist[t][age])
                        << k.name << " t" << t << " age " << age
                        << " at cycle " << sim.now();
                }
            }
            ASSERT_EQ(sim.checkInvariants(), "") << k.name;
        }
    }
};

TEST_P(WindowOracleTest, IncrementalWindowsMatchFromScratchRecompute)
{
    // The adaptive fetch policy reads the windows: synced, and checked,
    // every cycle.
    checkWindows(PolicyKind::Adaptive, PolicyKind::RoundRobin, 1);
}

TEST_P(WindowOracleTest, LazyWindowsMatchFromScratchOnceSynced)
{
    // No policy reads the windows: sampled only at events, and caught
    // up by saveSnapshot() at checks up to 100 cycles apart.
    checkWindows(PolicyKind::Icount, PolicyKind::RoundRobin, 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowOracleTest,
                         ::testing::Range(std::uint64_t(1),
                                          std::uint64_t(13)));

// ---------------------------------------------------------------------
// The completion calendar against a reference ordered by (cycle, push
// order): latencies up to three laps of the horizon, several pushes a
// cycle, jumps over cycles with nothing due (as the idle skip makes),
// and save-style rebuilds through forEach.
// ---------------------------------------------------------------------

class EventQueueFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EventQueueFuzzTest, FiresInCycleThenPushOrder)
{
    Rng rng(GetParam());
    constexpr Cycle kHorizon = EventQueue::kHorizon;
    EventQueue q;
    // Each event's tid is its push number. Equal keys keep their
    // insertion order: (cycle, push order).
    std::multimap<Cycle, ThreadId> ref;
    ThreadId pushed = 0;
    const auto expectEarliest = [&](Cycle now) {
        const Cycle want = ref.empty() ? kNoCycle : ref.begin()->first;
        ASSERT_EQ(q.earliest(now), want) << "cycle " << now;
        ASSERT_EQ(q.due(now), want <= now) << "cycle " << now;
        ASSERT_EQ(q.size(), ref.size());
    };

    for (Cycle now = 0; now < 12 * kHorizon; ++now) {
        expectEarliest(now);
        std::vector<ThreadId> fired;
        q.drain(now, [&](const Event &ev) {
            EXPECT_EQ(ev.at, now);
            fired.push_back(ev.tid);
        });
        std::vector<ThreadId> want;
        while (!ref.empty() && ref.begin()->first <= now) {
            want.push_back(ref.begin()->second);
            ref.erase(ref.begin());
        }
        ASSERT_EQ(fired, want) << "cycle " << now;

        // Dense blocks push several events a cycle; sparse blocks seldom
        // push, and only two laps out or more, so at times every event
        // waits a lap or more ahead.
        const bool sparse = now / (4 * kHorizon) % 2 == 1;
        for (std::uint64_t n = sparse ? rng.uniform(256) == 0
                                      : rng.uniform(4);
             n > 0; --n) {
            const Cycle at =
                now + 1 +
                (sparse ? 2 * kHorizon + rng.uniform(kHorizon)
                        : rng.uniform(3 * kHorizon));
            q.push(Event{at, pushed, nullptr});
            ref.emplace(at, pushed);
            pushed += 1;
        }
        expectEarliest(now + 1);

        if (rng.uniform(32) == 0) {
            // Saved between cycles and restored by re-pushing.
            EventQueue rebuilt;
            q.forEach(now + 1, [&](const Event &ev) { rebuilt.push(ev); });
            q = std::move(rebuilt);
            expectEarliest(now + 1);
        }
        if (rng.uniform(8) == 0 && !ref.empty() &&
            ref.begin()->first > now + 1)
            now = ref.begin()->first - 1;  // skip to the next event
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzzTest,
                         ::testing::Range(std::uint64_t(1),
                                          std::uint64_t(9)));

// ---------------------------------------------------------------------
// DSL front-end fuzzing: no text input may crash the compiler, and any
// program that parses must round-trip through the canonical printer.
// ---------------------------------------------------------------------

namespace {

/** Vocabulary-driven token soup: plausible enough to reach deep paths. */
std::string
tokenSoup(Rng &rng)
{
    static const char *const extras[] = {
        "=", ",", "(", ")", "{", "}", ":", "+", "-", "*", "/", "%",
        "<", ">", "==", "!=", "<=", ">=",
        "a", "b", "s1", "x", "k", "foo",
        "0", "1", "4", "8", "24", "0.5", "4K", "2M", "1G", "65536",
        "\n",
    };
    const auto &words = dsl::dslKeywords();
    std::string text;
    if (rng.bernoulli(0.7))
        text += "kernel k\n";
    const int n = 3 + int(rng.uniform(60));
    for (int i = 0; i < n; ++i) {
        if (rng.bernoulli(0.45))
            text += words[rng.uniform(words.size())];
        else
            text += extras[rng.uniform(std::size(extras))];
        text += rng.bernoulli(0.2) ? "\n" : " ";
    }
    return text;
}

/** Raw printable-character soup: exercises the lexer error paths. */
std::string
charSoup(Rng &rng)
{
    std::string text;
    const int n = int(rng.uniform(120));
    for (int i = 0; i < n; ++i)
        text += char(32 + rng.uniform(95));
    return text;
}

/**
 * Compile arbitrary text: the only acceptable outcomes are a valid
 * kernel or a positioned DslError. Returns true when it compiled.
 */
bool
compilesCleanly(const std::string &text)
{
    try {
        const Kernel k = dsl::compileKernel(text);
        k.validate();  // a compiled kernel must also be valid
        return true;
    } catch (const dsl::DslError &e) {
        EXPECT_GE(e.line, 0);
        EXPECT_GE(e.col, 0);
        EXPECT_FALSE(e.message.empty());
        return false;
    }
}

/**
 * Any program that parses must survive print -> parse -> print with a
 * byte-identical canonical form (structural equality of the ASTs).
 */
void
expectRoundTrip(const std::string &text)
{
    dsl::Program p1;
    try {
        p1 = dsl::parseProgram(text);
    } catch (const dsl::DslError &) {
        return;  // didn't parse: nothing to round-trip
    }
    const std::string s1 = dsl::printProgram(p1);
    dsl::Program p2;
    try {
        p2 = dsl::parseProgram(s1);
    } catch (const dsl::DslError &e) {
        FAIL() << "canonical print does not reparse: " << e.what()
               << "\n" << s1;
    }
    EXPECT_EQ(s1, dsl::printProgram(p2)) << "for input:\n" << text;
}

} // namespace

class DslFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DslFuzzTest, TokenSoupNeverCrashes)
{
    Rng rng(deriveSeed(0x64736c66, GetParam()));
    for (int i = 0; i < 200; ++i) {
        const std::string text = tokenSoup(rng);
        compilesCleanly(text);
        expectRoundTrip(text);
    }
}

TEST_P(DslFuzzTest, CharSoupNeverCrashes)
{
    Rng rng(deriveSeed(0x64736c63, GetParam()));
    for (int i = 0; i < 200; ++i)
        compilesCleanly(charSoup(rng));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DslFuzzTest,
                         ::testing::Range(std::uint64_t(1),
                                          std::uint64_t(21)));

TEST(DslRoundTrip, CorpusKernelsReachAFixedPoint)
{
    const char *names[] = {"tomcatv", "swim",  "su2cor",  "hydro2d",
                           "mgrid",   "applu", "turb3d",  "apsi",
                           "fpppp",   "wave5", "pointer_chase",
                           "hash_join", "stencil"};
    for (const char *name : names) {
        const std::string path = std::string(MTDAE_SOURCE_DIR) +
                                 "/examples/kernels/" + name + ".mk";
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in.good()) << path;
        std::ostringstream ss;
        ss << in.rdbuf();
        expectRoundTrip(ss.str());
    }
}

TEST(DslRoundTrip, CanonicalFormCompilesIdentically)
{
    // Printing and reparsing must not change the compiled kernel: the
    // printer is a faithful, normalising serialisation.
    const std::string text = std::string("kernel rt\n") +
                             "param n = 3\n" +
                             "stream s = strided(64K, 8)\n" +
                             "reg acc : fp\n" +
                             "loop n as i {\n" +
                             "if i % 2 == 0 {\n" +
                             "let v = loadf(s)\n" +
                             "fadd acc = acc, v\n" +
                             "} else {\n" +
                             "advance s\n" +
                             "}\n" +
                             "}\n";
    const Kernel direct = dsl::compileKernel(text);
    const std::string canon =
        dsl::printProgram(dsl::parseProgram(text));
    const Kernel reparsed = dsl::compileKernel(canon);
    ASSERT_EQ(direct.ops.size(), reparsed.ops.size());
    for (std::size_t i = 0; i < direct.ops.size(); ++i) {
        EXPECT_EQ(direct.ops[i].op, reparsed.ops[i].op) << i;
        EXPECT_EQ(direct.ops[i].dst, reparsed.ops[i].dst) << i;
    }
    EXPECT_EQ(direct.numIntRegs, reparsed.numIntRegs);
    EXPECT_EQ(direct.numFpRegs, reparsed.numFpRegs);
}
