/**
 * @file
 * Integration tests of the full pipeline on small kernels with known
 * structure: conservation, ordering, latency and accounting invariants.
 */

#include <gtest/gtest.h>

#include "tests/test_util.hh"

using namespace mtdae;
using namespace mtdae::test;

TEST(Simulator, DrainsAFiniteTraceCompletely)
{
    const SimConfig cfg = testConfig();
    Simulator sim = makeSim(cfg, streamingKernel(), 100);
    const std::size_t body = streamingKernel().ops.size();
    ASSERT_TRUE(drain(sim));
    EXPECT_EQ(sim.totalGraduated(), body * 100);
}

TEST(Simulator, GraduationIsMonotonicAndBounded)
{
    SimConfig cfg = testConfig();
    cfg.warmupInsts = 0;
    Simulator sim = makeSim(cfg, streamingKernel());
    std::uint64_t last = 0;
    for (int i = 0; i < 2000; ++i) {
        sim.step();
        const std::uint64_t g = sim.totalGraduated();
        EXPECT_GE(g, last);
        EXPECT_LE(g - last, std::uint64_t(cfg.graduateWidth));
        last = g;
    }
    EXPECT_GT(last, 0u);
}

TEST(Simulator, IpcNeverExceedsMachineWidth)
{
    const SimConfig cfg = testConfig(4);
    Simulator sim = makeSim(cfg, streamingKernel());
    const RunResult r = sim.run(100000);
    EXPECT_LE(r.ipc, double(cfg.apUnits + cfg.epUnits));
    EXPECT_GT(r.ipc, 0.0);
}

TEST(Simulator, SlotAccountingSumsToWidthTimesCycles)
{
    const SimConfig cfg = testConfig(2);
    Simulator sim = makeSim(cfg, streamingKernel());
    const RunResult r = sim.run(20000);
    EXPECT_EQ(r.ap.total(), r.cycles * cfg.apUnits);
    EXPECT_EQ(r.ep.total(), r.cycles * cfg.epUnits);
}

TEST(Simulator, UsefulSlotsMatchGraduatedWork)
{
    // Over a long interval, issued (useful) slots equal graduated
    // instructions minus the never-issued Nops (none here).
    SimConfig cfg = testConfig();
    cfg.warmupInsts = 0;
    Simulator sim = makeSim(cfg, streamingKernel(), 2000);
    ASSERT_TRUE(drain(sim));
    const RunResult r = sim.snapshot();
    EXPECT_EQ(r.ap.count(SlotUse::Useful) + r.ep.count(SlotUse::Useful),
              sim.totalGraduated());
}

TEST(Simulator, PureComputeNeverTouchesMemory)
{
    const SimConfig cfg = testConfig();
    Simulator sim = makeSim(cfg, computeKernel());
    const RunResult r = sim.run(20000);
    EXPECT_EQ(r.loadMissRatio, 0.0);
    EXPECT_EQ(r.busUtilization, 0.0);
    EXPECT_EQ(r.fpMisses + r.intMisses, 0u);
    EXPECT_GT(r.ipc, 0.5);
}

TEST(Simulator, ComputeKernelBoundByEpLatency)
{
    // computeKernel's FP ops form a dependence chain through x, so the
    // EP recurrence (latency 4) bounds the iteration period.
    SimConfig cfg = testConfig();
    Simulator sim = makeSim(cfg, computeKernel());
    const RunResult r = sim.run(20000);
    // 5 body ops + back-edge = 6 instructions per >= 8-cycle recurrence
    // (two chained FP ops): IPC must sit below 6/8.
    EXPECT_LT(r.ipc, 0.80);
    // And the dominant EP waste must be FU-latency waits, as the paper
    // observes for a single thread.
    EXPECT_GT(r.ep.fraction(SlotUse::WaitFu), 0.3);
}

TEST(Simulator, LoadsCompleteAfterL2Latency)
{
    // With an L2 latency of 64, a single-load kernel cannot run faster
    // than one iteration per miss latency when every load misses and is
    // immediately consumed.
    SimConfig cfg = testConfig(1, true, 64);
    cfg.mshrs = 16;
    Simulator sim = makeSim(cfg, intChaseKernel(32 * 1024 * 1024));
    const RunResult r = sim.run(5000);
    // Perceived latency of those misses is (nearly) the full miss time.
    EXPECT_GT(r.perceivedInt, 50.0);
    EXPECT_LT(r.perceivedInt, 70.0);
}

TEST(Simulator, WarmupResetsMeasurement)
{
    SimConfig cfg = testConfig();
    cfg.warmupInsts = 5000;
    Simulator sim = makeSim(cfg, streamingKernel());
    const RunResult r = sim.run(10000);
    EXPECT_GE(sim.totalGraduated(), 15000u);
    EXPECT_LT(r.insts, sim.totalGraduated());
    EXPECT_GE(r.insts, 10000u);
}

TEST(Simulator, SnapshotIpcConsistent)
{
    const SimConfig cfg = testConfig();
    Simulator sim = makeSim(cfg, streamingKernel());
    const RunResult r = sim.run(30000);
    EXPECT_NEAR(r.ipc, double(r.insts) / double(r.cycles), 1e-12);
}

TEST(Simulator, RequiresOneSourcePerThread)
{
    SimConfig cfg = testConfig(2);
    std::vector<std::unique_ptr<TraceSource>> sources;
    sources.push_back(std::make_unique<KernelTraceSource>(
        streamingKernel(), 0, 0x1000, 1));
    EXPECT_DEATH(Simulator(cfg, std::move(sources)), "one trace source");
}

TEST(Simulator, RejectsAnInvalidConfigBeforeBuildingAnything)
{
    // Each of these once reached a policy or the memory system before
    // validation and aborted (a wrong-seam policy) or divided by zero
    // (a zero line size or bus width) instead of throwing.
    SimConfig split_fetch = testConfig(2);
    split_fetch.fetchPolicy = PolicyKind::Split;
    SimConfig stall_issue = testConfig(2);
    stall_issue.issuePolicy = PolicyKind::Stall;
    SimConfig zero_line = testConfig(2);
    zero_line.l1LineBytes = 0;
    SimConfig zero_bus = testConfig(2);
    zero_bus.busBytesPerCycle = 0;
    for (const SimConfig &cfg :
         {split_fetch, stall_issue, zero_line, zero_bus})
        EXPECT_THROW(makeSim(cfg, streamingKernel()), ConfigError);
}

TEST(Simulator, StoreDataArrivesFromTheEp)
{
    // An FP store whose data comes from a long FP chain must graduate
    // after the chain completes — and must not corrupt SAQ ordering.
    KernelBuilder b;
    auto s = b.strided(1 << 20, 8);
    const int x = b.ldf(s);
    const int y = b.fop(Opcode::FMul, x, x);
    const int z = b.fop(Opcode::FMul, y, y);
    b.stf(s, z);
    b.advance(s);
    const SimConfig cfg = testConfig();
    Simulator sim = makeSim(cfg, b.build("fpstore"), 5000);
    ASSERT_TRUE(drain(sim));
    EXPECT_EQ(sim.totalGraduated(), 7u * 5000);
}

TEST(Simulator, SaqForwardingServesLoadAfterStore)
{
    // Store then load the same address each iteration: the load must
    // forward from the SAQ, never missing in the cache.
    KernelBuilder b;
    auto s = b.strided(64, 8);  // 8 elements, revisited constantly
    const int i = b.intReg();
    b.iopInto(Opcode::IAdd, i, i);
    b.sti(s, i);
    auto s2 = b.stridedShared(64, 8, s.addrReg);
    // The paired load walks the same addresses one access behind.
    const int v = b.ldi(s2);
    b.iopInto(Opcode::ILogic, v, v, i);
    b.advance(s);
    const SimConfig cfg = testConfig(1, true, 256);
    Simulator sim = makeSim(cfg, b.build("fwd"), 3000);
    const RunResult r = sim.run(10000);
    // The footprint is one cache line: after the cold miss everything
    // hits or forwards; perceived latency collapses.
    EXPECT_LT(r.perceivedInt, 1.0);
    EXPECT_GT(r.ipc, 1.0);
}

TEST(Simulator, MispredictsGateFetchAndCostCycles)
{
    // A 50/50 data-dependent branch is unpredictable; the same kernel
    // with an always-taken branch is nearly free.
    auto make = [](float prob) {
        KernelBuilder b;
        const int c = b.intReg();
        b.iopInto(Opcode::ICmp, c, c);
        b.br(c, prob, 0);
        const int x = b.intReg();
        for (int i = 0; i < 6; ++i)
            b.iopInto(Opcode::IAdd, x, x);
        return b.build("br");
    };
    const SimConfig cfg = testConfig();
    Simulator predictable = makeSim(cfg, make(1.0f));
    Simulator random = makeSim(cfg, make(0.5f));
    const RunResult rp = predictable.run(30000);
    const RunResult rr = random.run(30000);
    EXPECT_LT(rp.mispredictRate, 0.02);
    // Half the conditional branches are the (predictable) back-edges,
    // so a 50/50 hammock yields ~25% overall.
    EXPECT_GT(rr.mispredictRate, 0.18);
    EXPECT_GT(rp.ipc, rr.ipc * 1.15);
    // Gated fetch shows up as idle/wrong-path issue slots.
    EXPECT_GT(rr.ap.fraction(SlotUse::Idle),
              rp.ap.fraction(SlotUse::Idle));
}

TEST(Simulator, UnresolvedBranchLimitThrottlesTightLoops)
{
    // A loop body far shorter than the fetch width: with only 4
    // unresolved branches allowed, fetch cannot run arbitrarily ahead.
    KernelBuilder b;
    const int x = b.intReg();
    b.iopInto(Opcode::IAdd, x, x);
    const Kernel k = b.build("tight");  // 3 instructions incl. back-edge
    SimConfig strict = testConfig();
    strict.maxUnresolvedBranches = 1;
    SimConfig loose = testConfig();
    loose.maxUnresolvedBranches = 16;
    Simulator s1 = makeSim(strict, k);
    Simulator s2 = makeSim(loose, k);
    EXPECT_LT(s1.run(20000).ipc, s2.run(20000).ipc);
}

TEST(Simulator, RegisterPressureStallsDispatchNotCorrectness)
{
    SimConfig cfg = testConfig();
    cfg.epPhysRegs = 34;  // almost no rename headroom
    Simulator sim = makeSim(cfg, streamingKernel(), 2000);
    ASSERT_TRUE(drain(sim));
    EXPECT_EQ(sim.totalGraduated(),
              streamingKernel().ops.size() * 2000);
}

TEST(Simulator, TinyQueuesStillDrainCorrectly)
{
    SimConfig cfg = testConfig();
    cfg.iqEntries = 1;
    cfg.apQueueEntries = 1;
    cfg.saqEntries = 1;
    cfg.robEntries = 4;
    cfg.fetchBufferSize = 2;
    Simulator sim = makeSim(cfg, streamingKernel(), 500);
    ASSERT_TRUE(drain(sim));
    EXPECT_EQ(sim.totalGraduated(), streamingKernel().ops.size() * 500);
}

namespace {

/** A fixed instruction sequence, then the end of the trace. */
class ScriptedSource : public TraceSource
{
  public:
    explicit ScriptedSource(std::vector<TraceInst> insts)
        : insts_(std::move(insts))
    {}

    bool
    next(TraceInst &out) override
    {
        if (at_ == insts_.size())
            return false;
        out = insts_[at_++];
        return true;
    }

    const std::string &name() const override { return name_; }

  private:
    std::vector<TraceInst> insts_;
    std::size_t at_ = 0;
    std::string name_ = "scripted";
};

/** An integer load into r@p dst, or a store when @p dst is kNone,
 *  with no address or data register to wait for. */
TraceInst
memOp(Addr addr, std::uint8_t dst)
{
    TraceInst ti;
    ti.op = dst == RegRef::kNone ? Opcode::StI : Opcode::LdI;
    ti.addr = addr;
    ti.pc = 0x400;
    if (dst != RegRef::kNone)
        ti.dst = RegRef::intReg(dst);
    return ti;
}

/** A simulator running one scripted trace per context of @p cfg. */
Simulator
scriptedSim(const SimConfig &cfg, std::vector<std::vector<TraceInst>> traces)
{
    std::vector<std::unique_ptr<TraceSource>> sources;
    for (auto &trace : traces)
        sources.push_back(std::make_unique<ScriptedSource>(std::move(trace)));
    return Simulator(cfg, std::move(sources));
}

} // namespace

// The two tests below pin cases where an access the L1 refused for want
// of an MSHR becomes admissible without an MSHR coming free for it: the
// line it wants is allocated by another access, so it would merge into
// that fill. The expected results were recorded before refused accesses
// waited by refusal reason, and every field must stay as it was, with
// idle skipping on and off.

TEST(Simulator, WaitingStoreMergesIntoALineALoadAllocates)
{
    // One MSHR. The store at the ROB head is refused (the MSHR fills
    // 0x20040's line), and a younger load to another word of its line,
    // 0x10008, is refused at issue. When the fill lands (cycle 20), the
    // load takes the freed MSHR for the store's line before graduation
    // runs, so no MSHR is free there; the store must still be attempted,
    // merge into the load's fill and graduate that cycle, not wait for
    // the next fill and hit.
    for (const bool skip : {true, false}) {
        SimConfig cfg = testConfig();
        cfg.warmupInsts = 0;
        cfg.mshrs = 1;
        cfg.cycleSkip = skip;
        const std::vector<TraceInst> trace = {
            memOp(0x10000, RegRef::kNone), memOp(0x20040, 1),
            memOp(0x10008, 2)};

        Simulator stepped = scriptedSim(cfg, {trace});
        while (stepped.now() < 21)
            stepped.step();
        EXPECT_EQ(stepped.totalGraduated(), 2u) << "skip " << skip;

        Simulator sim = scriptedSim(cfg, {trace});
        const RunResult r = sim.run(1000);
        EXPECT_EQ(r.cycles, 39u) << "skip " << skip;
        EXPECT_EQ(r.insts, 3u);
        EXPECT_DOUBLE_EQ(r.mergedRatio, 1.0 / 3.0);
        EXPECT_DOUBLE_EQ(r.loadMissRatio, 1.0);
        EXPECT_DOUBLE_EQ(r.storeMissRatio, 0.0);
        EXPECT_DOUBLE_EQ(r.avgFillLatency, 18.0);
        EXPECT_EQ(r.cyclesSkipped, skip ? 32u : 0u);
        EXPECT_EQ(r.skipEvents, skip ? 2u : 0u);
    }
}

TEST(Simulator, WaitingLoadMergesIntoALineAllocatedPastTheIssueSlots)
{
    // One MSHR, one AP unit, two contexts. Thread 0's first load takes
    // the MSHR; its second load, to 0x10000, and thread 1's load, to
    // another word of that line, are refused. When the fill lands
    // (cycle 20, thread 0 first in the rotation) thread 0's load takes
    // the freed MSHR for the line and the only issue slot, so thread 1's
    // load is not reached. Next cycle no MSHR is free, yet thread 1's
    // load must be attempted and merge into that fill (ready at 38),
    // not wait for the fill to land and hit (ready at 39).
    for (const bool skip : {true, false}) {
        SimConfig cfg = testConfig(2);
        cfg.warmupInsts = 0;
        cfg.mshrs = 1;
        cfg.apUnits = 1;
        cfg.cycleSkip = skip;
        Simulator sim = scriptedSim(
            cfg, {{memOp(0x30040, 1), memOp(0x10000, 2)},
                  {memOp(0x10008, 1)}});
        const RunResult r = sim.run(1000);
        EXPECT_EQ(r.cycles, 39u) << "skip " << skip;
        EXPECT_EQ(r.insts, 3u);
        EXPECT_DOUBLE_EQ(r.mergedRatio, 1.0 / 3.0);
        EXPECT_DOUBLE_EQ(r.loadMissRatio, 2.0 / 3.0);
        EXPECT_DOUBLE_EQ(r.avgFillLatency, 18.0);
        EXPECT_EQ(r.threadInsts, (std::vector<std::uint64_t>{2, 1}));
        EXPECT_EQ(r.cyclesSkipped, skip ? 32u : 0u);
        EXPECT_EQ(r.skipEvents, skip ? 2u : 0u);
    }
}
