/**
 * @file
 * Unit tests for the memory hierarchy: L1 hit/miss behaviour, MSHR
 * merging and exhaustion, port limits, frame conflicts, write-backs,
 * bus occupancy and the miss timing model.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "memory/bus.hh"
#include "memory/memory_system.hh"

using namespace mtdae;

namespace {

SimConfig
memConfig()
{
    SimConfig cfg;          // 64KB direct-mapped, 32B lines, 4 ports,
    cfg.l2Latency = 16;     // 16 MSHRs, 16B/cycle bus
    return cfg;
}

/** Advance @p mem cycle by cycle up to @p target. */
void
advanceTo(MemorySystem &mem, Cycle from, Cycle target)
{
    for (Cycle c = from; c <= target; ++c)
        mem.beginCycle(c);
}

} // namespace

TEST(Bus, FifoReservations)
{
    Bus bus;
    EXPECT_EQ(bus.reserve(10, 2), 12u);   // starts at 10
    EXPECT_EQ(bus.reserve(0, 2), 14u);    // queues behind the first
    EXPECT_EQ(bus.reserve(100, 2), 102u); // idle gap, then transfer
    EXPECT_EQ(bus.busyCycles(), 6u);
}

TEST(Bus, UtilizationOverInterval)
{
    Bus bus;
    bus.resetStats(0);
    bus.reserve(0, 10);
    EXPECT_NEAR(bus.utilization(20), 0.5, 1e-9);
    bus.resetStats(20);
    EXPECT_NEAR(bus.utilization(30), 0.0, 1e-9);
}

TEST(MemorySystem, ColdMissThenHit)
{
    MemorySystem mem(memConfig());
    mem.beginCycle(0);
    const MemResult m = mem.load(0x1000, 0);
    ASSERT_TRUE(m.accepted);
    EXPECT_FALSE(m.hit);
    // Unloaded miss: L2 latency (16) + line transfer (2 cycles).
    EXPECT_EQ(m.readyAt, 18u);

    advanceTo(mem, 1, m.readyAt);
    const MemResult h = mem.load(0x1000, m.readyAt);
    ASSERT_TRUE(h.accepted);
    EXPECT_TRUE(h.hit);
    EXPECT_EQ(h.readyAt, m.readyAt + 1);  // 1-cycle hit
}

TEST(MemorySystem, SameLineHitsSameFrame)
{
    MemorySystem mem(memConfig());
    mem.beginCycle(0);
    (void)mem.load(0x2000, 0);
    advanceTo(mem, 1, 18);
    // Any address within the 32-byte line hits.
    EXPECT_TRUE(mem.load(0x2000 + 31, 18).hit);
    EXPECT_FALSE(mem.load(0x2000 + 32, 18).hit);  // next line
}

TEST(MemorySystem, SecondaryMissMergesIntoMshr)
{
    MemorySystem mem(memConfig());
    mem.beginCycle(0);
    const MemResult a = mem.load(0x3000, 0);
    mem.beginCycle(1);
    const MemResult b = mem.load(0x3008, 1);  // same line
    ASSERT_TRUE(b.accepted);
    EXPECT_FALSE(b.hit);
    EXPECT_TRUE(b.merged);
    EXPECT_EQ(b.readyAt, a.readyAt);  // rides the same fill
    EXPECT_EQ(mem.stats().mergedMisses, 1u);
    // Merged misses are delayed hits for the ratio statistics.
    EXPECT_EQ(mem.stats().loadMiss.num, 1u);
    EXPECT_EQ(mem.stats().loadMiss.den, 2u);
}

TEST(MemorySystem, PortLimitRejectsFifthAccess)
{
    MemorySystem mem(memConfig());
    mem.beginCycle(0);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(mem.load(0x4000 + 64 * i, 0).accepted);
    const MemResult r = mem.load(0x8000, 0);
    EXPECT_FALSE(r.accepted);
    EXPECT_EQ(r.reject, MemReject::NoPort);
    // Ports recycle the next cycle.
    mem.beginCycle(1);
    EXPECT_TRUE(mem.load(0x8000, 1).accepted);
}

TEST(MemorySystem, MshrExhaustionRejects)
{
    SimConfig cfg = memConfig();
    cfg.mshrs = 2;
    cfg.l1Ports = 8;
    MemorySystem mem(cfg);
    mem.beginCycle(0);
    // Distinct frames (the cache is 64 KB direct-mapped, so keep the
    // low 16 bits distinct) to exercise MSHR capacity, not conflicts.
    EXPECT_TRUE(mem.load(0x10000, 0).miss());
    EXPECT_TRUE(mem.load(0x20040, 0).miss());
    const MemResult r = mem.load(0x30080, 0);
    EXPECT_FALSE(r.accepted);
    EXPECT_EQ(r.reject, MemReject::NoMshr);
    EXPECT_EQ(mem.mshrsInUse(), 2u);
    // After the fills land, MSHRs recycle.
    advanceTo(mem, 1, 30);
    EXPECT_TRUE(mem.load(0x30080, 30).accepted);
}

TEST(MemorySystem, FrameConflictDuringPendingFill)
{
    MemorySystem mem(memConfig());
    mem.beginCycle(0);
    // 64KB direct-mapped: 0x0 and 0x10000 share frame 0.
    EXPECT_TRUE(mem.load(0x0, 0).miss());
    mem.beginCycle(1);
    const MemResult r = mem.load(0x10000, 1);
    EXPECT_FALSE(r.accepted);
    EXPECT_EQ(r.reject, MemReject::Conflict);
    // Once the fill lands, the conflicting line can replace it.
    advanceTo(mem, 2, 19);
    EXPECT_TRUE(mem.load(0x10000, 19).miss());
}

TEST(MemorySystem, DirectMappedEviction)
{
    MemorySystem mem(memConfig());
    mem.beginCycle(0);
    (void)mem.load(0x0, 0);
    advanceTo(mem, 1, 20);
    EXPECT_TRUE(mem.load(0x0, 20).hit);
    // Bring in the conflicting line; the original is evicted.
    mem.beginCycle(21);
    EXPECT_TRUE(mem.load(0x10000, 21).miss());
    advanceTo(mem, 22, 60);
    EXPECT_TRUE(mem.load(0x10000, 60).hit);
    mem.beginCycle(61);
    EXPECT_FALSE(mem.load(0x0, 61).hit);
}

TEST(MemorySystem, StoreAllocatesAndDirties)
{
    MemorySystem mem(memConfig());
    mem.beginCycle(0);
    const MemResult s = mem.store(0x5000, 0);
    ASSERT_TRUE(s.accepted);
    EXPECT_FALSE(s.hit);  // write-allocate: store miss fetches the line
    EXPECT_EQ(mem.stats().storeMiss.num, 1u);

    // After the fill, evicting the line must write it back.
    advanceTo(mem, 1, 20);
    EXPECT_EQ(mem.stats().writebacks, 0u);
    EXPECT_TRUE(mem.load(0x5000 + 0x10000, 20).miss());
    EXPECT_EQ(mem.stats().writebacks, 1u);
}

TEST(MemorySystem, CleanEvictionDoesNotWriteBack)
{
    MemorySystem mem(memConfig());
    mem.beginCycle(0);
    (void)mem.load(0x6000, 0);
    advanceTo(mem, 1, 20);
    (void)mem.load(0x6000 + 0x10000, 20);
    EXPECT_EQ(mem.stats().writebacks, 0u);
}

TEST(MemorySystem, MergedStoreDirtiesTheFill)
{
    MemorySystem mem(memConfig());
    mem.beginCycle(0);
    (void)mem.load(0x7000, 0);
    mem.beginCycle(1);
    EXPECT_TRUE(mem.store(0x7008, 1).merged);
    // After the fill lands dirty, eviction writes back.
    advanceTo(mem, 2, 20);
    (void)mem.load(0x7000 + 0x10000, 20);
    EXPECT_EQ(mem.stats().writebacks, 1u);
}

TEST(MemorySystem, BusQueueingDelaysBackToBackMisses)
{
    SimConfig cfg = memConfig();
    cfg.l1Ports = 8;
    MemorySystem mem(cfg);
    mem.beginCycle(0);
    const MemResult a = mem.load(0x100000, 0);
    const MemResult b = mem.load(0x200040, 0);
    const MemResult c = mem.load(0x300080, 0);
    // The L2 is multibanked (no serialisation) but the bus carries one
    // 2-cycle line transfer at a time.
    EXPECT_EQ(a.readyAt, 18u);
    EXPECT_EQ(b.readyAt, 20u);
    EXPECT_EQ(c.readyAt, 22u);
}

TEST(MemorySystem, WritebackOccupiesBusBeforeFill)
{
    MemorySystem mem(memConfig());
    mem.beginCycle(0);
    (void)mem.store(0x0, 0);  // will be dirty after its fill
    advanceTo(mem, 1, 20);
    // Evicting the dirty line: the write-back transfer [20,22) overlaps
    // the L2 access latency, so the fill still lands at 20 + 16 + 2 —
    // but the bus carried both transfers.
    const std::uint64_t busy_before = 4;  // store-miss fill earlier
    const MemResult f = mem.load(0x10000, 20);
    ASSERT_TRUE(f.miss());
    EXPECT_EQ(f.readyAt, 20 + 16 + 2u);
    EXPECT_EQ(mem.stats().writebacks, 1u);
    (void)busy_before;
}

TEST(MemorySystem, LatencyScalesWithL2Parameter)
{
    for (const std::uint32_t lat : {1u, 64u, 256u}) {
        SimConfig cfg = memConfig();
        cfg.l2Latency = lat;
        MemorySystem mem(cfg);
        mem.beginCycle(0);
        EXPECT_EQ(mem.load(0x9000, 0).readyAt, lat + 2);
    }
}

TEST(MemorySystem, ResetStatsClearsCounters)
{
    MemorySystem mem(memConfig());
    mem.beginCycle(0);
    (void)mem.load(0xa000, 0);
    (void)mem.store(0xb000, 0);
    mem.resetStats(0);
    EXPECT_EQ(mem.stats().loadMiss.den, 0u);
    EXPECT_EQ(mem.stats().storeMiss.den, 0u);
    EXPECT_EQ(mem.stats().writebacks, 0u);
}

TEST(MemorySystem, MissRatioCombinesLoadsAndStores)
{
    MemorySystem mem(memConfig());
    mem.beginCycle(0);
    (void)mem.load(0xc000, 0);   // miss
    advanceTo(mem, 1, 20);
    (void)mem.load(0xc000, 20);  // hit
    (void)mem.store(0xc008, 20); // hit
    (void)mem.store(0xd000, 20); // miss
    EXPECT_NEAR(mem.stats().missRatio(), 0.5, 1e-9);
    EXPECT_NEAR(mem.stats().loadMiss.value(), 0.5, 1e-9);
    EXPECT_NEAR(mem.stats().storeMiss.value(), 0.5, 1e-9);
}

namespace {

/** The hierarchy's complete serialized state. */
std::vector<std::uint8_t>
stateOf(const MemorySystem &mem)
{
    ByteWriter w;
    mem.save(w);
    return w.take();
}

} // namespace

TEST(MemorySystem, RestoreRejectsMshrsAndFramesThatDisagree)
{
    // The merge lookup goes through a frame's pending-MSHR index, so a
    // snapshot whose frames and MSHRs disagree must be refused.
    MemorySystem mem(memConfig());
    mem.beginCycle(0);
    ASSERT_TRUE(mem.load(0x40, 0).miss());  // line 2: frame 2, MSHR 0
    const std::vector<std::uint8_t> good = stateOf(mem);
    {
        MemorySystem fresh(memConfig());
        ByteReader r(good);
        fresh.restore(r);
        EXPECT_EQ(stateOf(fresh), good);
    }
    // Frame records are u64 tag, valid, dirty, i32 pendingMshr after
    // the u64 frame count: clear frame 2's link to MSHR 0.
    std::vector<std::uint8_t> bad = good;
    const std::size_t pending = 8 + 2 * 14 + 10;
    ASSERT_EQ(bad[pending], 0u);
    for (std::size_t i = 0; i < 4; ++i)
        bad[pending + i] = 0xff;
    MemorySystem fresh(memConfig());
    ByteReader r(bad);
    EXPECT_THROW(fresh.restore(r), SnapshotError);
}

class RefusalFuzzTest
    : public ::testing::TestWithParam<std::tuple<bool, std::uint64_t>>
{
};

TEST_P(RefusalFuzzTest, RefusedUntilTheNextFillWithoutSideEffects)
{
    // Only a landing fill frees an MSHR, and a pending fill is never
    // cancelled, so an access refused with NoMshr at cycle c must be
    // refused again at every cycle before the nextFillCycle() read at
    // c, and one refused with Conflict at every cycle before its
    // frame's fill (frameFillCycle(), which may come later), whatever
    // other accesses come in between; and a refusal changes no state.
    // The simulator makes refused loads at issue, and refused stores at
    // graduation, wait on exactly this contract, and re-checks them
    // through refusal(): before every access, that probe must change
    // nothing and predict the access's outcome exactly, and agree with
    // the accessors the waiting reads (holds, frameFillCycle,
    // mshrFree).
    const auto [perfect, seed] = GetParam();
    Rng rng(deriveSeed(0x72656675, seed));
    SimConfig cfg = memConfig();
    cfg.perfectL2 = perfect;
    cfg.l1Bytes = 2048;  // 64 frames: frame conflicts are common
    cfg.l2Bytes = 32 * 1024;  // small: keeps the state compare cheap
    cfg.mshrs = 1 + std::uint32_t(rng.uniform(6));
    cfg.l1Ports = 1 + std::uint32_t(rng.uniform(4));
    cfg.validate();
    MemorySystem mem(cfg);

    struct Refused
    {
        Addr addr;
        Cycle at;
        Cycle until;
        MemReject why;
    };
    std::vector<Refused> open;
    std::uint64_t refused = 0, retried = 0;
    for (Cycle now = 0; now < 3000; ++now) {
        mem.beginCycle(now);
        std::erase_if(open, [&](const Refused &f) { return now >= f.until; });
        const std::uint64_t n = rng.uniform(7);
        for (std::uint64_t i = 0; i < n; ++i) {
            const bool store = rng.bernoulli(0.3);
            if (!open.empty() && rng.bernoulli(0.4)) {
                const Refused &f = open[rng.uniform(open.size())];
                const MemReject probe = mem.refusal(f.addr);
                const MemResult r =
                    store ? mem.store(f.addr, now) : mem.load(f.addr, now);
                ASSERT_EQ(probe, r.reject);
                ASSERT_FALSE(r.accepted)
                    << "address " << f.addr << " refused ("
                    << int(f.why) << ") at " << f.at << ", accepted at "
                    << now << " before the fill it waits for, due at "
                    << f.until;
                ++retried;
                continue;
            }
            const Addr addr = rng.uniform(1 << 15) * 8;  // 256 KB
            const bool check = rng.bernoulli(0.1);
            const std::vector<std::uint8_t> before =
                check ? stateOf(mem) : std::vector<std::uint8_t>{};
            const MemReject probe = mem.refusal(addr);
            if (check) {
                ASSERT_EQ(stateOf(mem), before) << "the probe changed state";
            }
            const std::uint64_t line = mem.lineOf(addr);
            if (probe != MemReject::NoPort) {
                const bool filling = mem.frameFillCycle(line) != kNoCycle;
                ASSERT_EQ(probe == MemReject::None,
                          mem.holds(line) || (!filling && mem.mshrFree()));
                ASSERT_EQ(probe == MemReject::Conflict,
                          filling && !mem.holds(line));
            }
            const MemResult r =
                store ? mem.store(addr, now) : mem.load(addr, now);
            ASSERT_EQ(probe, r.reject) << "probe and access disagree";
            ASSERT_EQ(r.accepted, probe == MemReject::None);
            if (r.accepted)
                continue;
            if (check) {
                ASSERT_EQ(stateOf(mem), before)
                    << "a refused access changed the hierarchy";
            }
            if (r.reject == MemReject::NoMshr ||
                r.reject == MemReject::Conflict) {
                const Cycle until = r.reject == MemReject::Conflict
                    ? mem.frameFillCycle(line) : mem.nextFillCycle();
                ASSERT_GT(until, now);
                ASSERT_GE(until, mem.nextFillCycle());
                open.push_back({addr, now, until, r.reject});
                ++refused;
            } else {
                ASSERT_EQ(r.reject, MemReject::NoPort);
            }
        }
    }
    EXPECT_GT(refused, 0u);
    EXPECT_GT(retried, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, RefusalFuzzTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Range(std::uint64_t(1), std::uint64_t(9))));
