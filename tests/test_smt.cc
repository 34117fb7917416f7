/**
 * @file
 * Simultaneous-multithreading behaviour: throughput scaling, fairness,
 * shared-resource contention and fetch policy.
 */

#include <gtest/gtest.h>

#include "tests/test_util.hh"
#include "workload/spec_fp95.hh"

using namespace mtdae;
using namespace mtdae::test;

namespace {

RunResult
runThreads(std::uint32_t n, const Kernel &k, std::uint64_t insts,
           Simulator **out = nullptr)
{
    static std::unique_ptr<Simulator> sim;
    SimConfig cfg = testConfig(n);
    sim = std::make_unique<Simulator>(makeSim(cfg, k));
    if (out)
        *out = sim.get();
    return sim->run(insts);
}

} // namespace

TEST(Smt, ThroughputGrowsWithThreads)
{
    const Kernel k = streamingKernel();
    const double ipc1 = runThreads(1, k, 30000).ipc;
    const double ipc2 = runThreads(2, k, 60000).ipc;
    const double ipc4 = runThreads(4, k, 120000).ipc;
    EXPECT_GT(ipc2, ipc1 * 1.4);
    // Two streaming threads already sit near the machine's effective
    // peak; four must at least hold it.
    EXPECT_GE(ipc4, ipc2 * 0.95);
}

TEST(Smt, ComputeBoundKernelScalesNearlyLinearlyToTwoThreads)
{
    // The paper's synergy: one in-order thread cannot cover the EP
    // latency, but additional threads fill those slots.
    const Kernel k = computeKernel();
    const double ipc1 = runThreads(1, k, 20000).ipc;
    const double ipc2 = runThreads(2, k, 40000).ipc;
    EXPECT_GT(ipc2, ipc1 * 1.7);
}

TEST(Smt, AllThreadsMakeProgress)
{
    SimConfig cfg = testConfig(4);
    Simulator sim = makeSim(cfg, streamingKernel());
    sim.run(100000);
    std::uint64_t min_g = ~std::uint64_t(0), max_g = 0;
    for (ThreadId t = 0; t < 4; ++t) {
        min_g = std::min(min_g, sim.context(t).graduated);
        max_g = std::max(max_g, sim.context(t).graduated);
    }
    EXPECT_GT(min_g, 0u);
    // Identical workloads: round-robin keeps threads roughly balanced.
    EXPECT_LT(double(max_g) / double(min_g), 1.5);
}

TEST(Smt, SharedCacheRaisesMissRatio)
{
    // More threads -> bigger combined working set -> more L1 misses
    // (paper Section 3.1).
    auto run_mix = [](std::uint32_t n) {
        SimConfig cfg = testConfig(n);
        std::vector<std::unique_ptr<TraceSource>> sources;
        for (ThreadId t = 0; t < n; ++t)
            sources.push_back(makeSuiteMixSource(t, 1));
        Simulator sim(cfg, std::move(sources));
        return sim.run(60000 * n);
    };
    const RunResult r1 = run_mix(1);
    const RunResult r6 = run_mix(6);
    EXPECT_GT(r6.missRatio, r1.missRatio * 1.05);
    EXPECT_GT(r6.busUtilization, r1.busUtilization);
}

TEST(Smt, PerThreadQueuesAreIndependent)
{
    // A thread blocked on memory must not stop another thread from
    // issuing: mix a chasing kernel with a compute kernel.
    SimConfig cfg = testConfig(2, true, 256);
    std::vector<std::unique_ptr<TraceSource>> sources;
    sources.push_back(std::make_unique<KernelTraceSource>(
        intChaseKernel(), Addr(1) << 34, 0x1000, 3));
    sources.push_back(std::make_unique<KernelTraceSource>(
        computeKernel(), Addr(2) << 34, 0x2000, 4));
    Simulator sim(cfg, std::move(sources));
    sim.run(40000);
    const std::uint64_t chase = sim.context(0).graduated;
    const std::uint64_t compute = sim.context(1).graduated;
    EXPECT_GT(compute, 4 * chase);
    EXPECT_GT(chase, 0u);
}

TEST(Smt, SingleThreadEpWaitsDominatedByFuLatency)
{
    // Paper Figure 3, first column pair: with one thread the major EP
    // bottleneck is the functional-unit latency.
    SimConfig cfg = testConfig(1);
    std::vector<std::unique_ptr<TraceSource>> sources;
    sources.push_back(makeSuiteMixSource(0, 1));
    Simulator sim(cfg, std::move(sources));
    const RunResult r = sim.run(120000);
    EXPECT_GT(r.ep.fraction(SlotUse::WaitFu), 0.3);
    EXPECT_GT(r.ep.fraction(SlotUse::WaitFu),
              r.ep.fraction(SlotUse::WaitMem));
}

TEST(Smt, MultithreadingRemovesFuWaits)
{
    // Paper Figure 3: adding contexts drastically reduces FU-latency
    // stalls in both units.
    auto run_mix = [](std::uint32_t n) {
        SimConfig cfg = testConfig(n);
        std::vector<std::unique_ptr<TraceSource>> sources;
        for (ThreadId t = 0; t < n; ++t)
            sources.push_back(makeSuiteMixSource(t, 1));
        Simulator sim(cfg, std::move(sources));
        return sim.run(80000 * n);
    };
    const RunResult r1 = run_mix(1);
    const RunResult r4 = run_mix(4);
    EXPECT_LT(r4.ep.fraction(SlotUse::WaitFu),
              0.5 * r1.ep.fraction(SlotUse::WaitFu));
    EXPECT_GT(r4.ipc, 1.6 * r1.ipc);
}

TEST(Smt, IssueNeverExceedsUnitWidths)
{
    SimConfig cfg = testConfig(6);
    Simulator sim = makeSim(cfg, streamingKernel());
    const RunResult r = sim.run(60000);
    EXPECT_LE(r.ap.count(SlotUse::Useful), r.cycles * cfg.apUnits);
    EXPECT_LE(r.ep.count(SlotUse::Useful), r.cycles * cfg.epUnits);
}

TEST(Smt, SevenAndMoreThreadsStillCorrect)
{
    SimConfig cfg = testConfig(9);
    Simulator sim = makeSim(cfg, streamingKernel(), 2000);
    ASSERT_TRUE(drain(sim));
    EXPECT_EQ(sim.totalGraduated(),
              9 * streamingKernel().ops.size() * 2000);
}
