/**
 * @file
 * The checkpoint/warm-start engine (src/core/snapshot.hh): the
 * byte-identity contract. A simulation snapshot-restored at an
 * arbitrary cycle must be byte-identical — same snapshot bytes, same
 * final state, same statistics — to the uninterrupted run, across
 * both memory backends, every fetch x issue policy pair (including
 * the flush gating policy with a non-empty replay queue), any worker
 * count, and the versioned serialized container must reject corrupt
 * or mismatched input instead of restoring garbage.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.hh"
#include "core/snapshot.hh"
#include "harness/cli.hh"
#include "harness/sweep.hh"
#include "policy/policy.hh"
#include "test_util.hh"
#include "workload/dsl/interp.hh"

namespace mtdae {
namespace {

using test::makeSim;
using test::streamingKernel;
using test::testConfig;

using Bytes = std::vector<std::uint8_t>;

/** Step @p sim to completion; ASSERTs it drains within a cycle cap. */
void
runToCompletion(Simulator &sim)
{
    for (std::uint64_t guard = 0; !sim.allDone(); ++guard) {
        ASSERT_LT(guard, 400000u) << "simulation did not drain";
        sim.step();
    }
}

/** The two machines the round-trip matrix crosses the policies with. */
SimConfig
backendCfg(bool perfect_l2, PolicyKind fetch, PolicyKind issue)
{
    SimConfig cfg = testConfig(2);
    cfg.fetchPolicy = fetch;
    cfg.issuePolicy = issue;
    cfg.perfectL2 = perfect_l2;
    if (!perfect_l2)
        cfg.l2Bytes = 64 * 1024;  // small finite L2 + DRAM: real misses
    return cfg;
}

/**
 * The headline assertion, for one configuration: capture the
 * uninterrupted run's snapshots at the checkpoint cycles {0, 1, mid,
 * last} plus its final state, then for each checkpoint restore into a
 * fresh simulator and prove (a) save-after-restore reproduces the
 * checkpoint bytes and (b) running the restored simulator to
 * completion reproduces the uninterrupted final state, byte for byte.
 */
void
expectRestoreEquivalence(const SimConfig &cfg,
                         const Kernel &kernel = streamingKernel())
{
    const std::uint64_t iters = 150;

    // Uninterrupted reference run, counting cycles.
    Simulator ref = makeSim(cfg, kernel, iters);
    runToCompletion(ref);
    const std::uint64_t last = ref.now();
    const Bytes ref_final = ref.saveSnapshot().toBytes();
    ASSERT_GT(last, 2u);

    for (const std::uint64_t cycle :
         {std::uint64_t(0), std::uint64_t(1), last / 2, last}) {
        // Re-run to the checkpoint cycle and snapshot there.
        Simulator a = makeSim(cfg, kernel, iters);
        for (std::uint64_t c = 0; c < cycle; ++c)
            a.step();
        const Snapshot snap = a.saveSnapshot();

        // Restore into a fresh simulator: its state must serialize
        // back to the very same bytes...
        Simulator b = makeSim(cfg, kernel, iters);
        b.restoreSnapshot(snap);
        EXPECT_EQ(b.saveSnapshot().toBytes(), snap.toBytes())
            << "save-after-restore drifted at cycle " << cycle;

        // ...and running it out must land on the reference final
        // state, byte for byte (statistics counters included).
        runToCompletion(b);
        EXPECT_EQ(b.now(), last) << "cycle count diverged from " << cycle;
        EXPECT_EQ(b.saveSnapshot().toBytes(), ref_final)
            << "restored run diverged from the uninterrupted run "
            << "(checkpoint at cycle " << cycle << ")";
        EXPECT_EQ(b.totalGraduated(), ref.totalGraduated());
    }
}

struct MatrixCase
{
    PolicyKind fetch;
    PolicyKind issue;
    bool perfectL2;
};

std::string
matrixName(const ::testing::TestParamInfo<MatrixCase> &info)
{
    std::string n = std::string(policyName(info.param.fetch)) + "_" +
                    policyName(info.param.issue) + "_" +
                    (info.param.perfectL2 ? "perfectL2" : "finiteL2");
    for (char &c : n)
        if (c == '-')
            c = '_';
    return n;
}

std::vector<MatrixCase>
matrixCases()
{
    std::vector<MatrixCase> cases;
    for (const PolicyKind fp : fetchPolicies())
        for (const PolicyKind ip : issuePolicies())
            for (const bool perfect : {true, false})
                cases.push_back({fp, ip, perfect});
    return cases;
}

class CheckpointMatrix : public ::testing::TestWithParam<MatrixCase>
{};

TEST_P(CheckpointMatrix, RestoreAtAnyCycleIsByteIdentical)
{
    const MatrixCase &p = GetParam();
    expectRestoreEquivalence(backendCfg(p.perfectL2, p.fetch, p.issue));
}

INSTANTIATE_TEST_SUITE_P(AllPolicyPairsAndBackends, CheckpointMatrix,
                         ::testing::ValuesIn(matrixCases()), matrixName);

TEST(CheckpointState, FlushPolicyWithNonEmptyReplayQueue)
{
    // The flush gating policy squashes fetch buffers into the replay
    // queue — per-context state that only exists mid-flight. Drive the
    // machine until a replay queue is non-empty, checkpoint *there*,
    // and require the round trip to hold.
    SimConfig cfg = backendCfg(false, PolicyKind::Flush,
                               PolicyKind::RoundRobin);
    cfg.l1Bytes = 1024;  // tiny L1: the gate engages constantly
    const std::uint64_t iters = 400;

    Simulator a = makeSim(cfg, streamingKernel(), iters);
    bool found = false;
    for (std::uint64_t c = 0; c < 200000 && !a.allDone(); ++c) {
        a.step();
        for (ThreadId t = 0; t < cfg.numThreads; ++t)
            if (!a.context(t).replayQ.empty())
                found = true;
        if (found)
            break;
    }
    ASSERT_TRUE(found) << "flush gating never populated a replay queue";

    const Snapshot snap = a.saveSnapshot();
    Simulator b = makeSim(cfg, streamingKernel(), iters);
    b.restoreSnapshot(snap);
    EXPECT_EQ(b.saveSnapshot().toBytes(), snap.toBytes());

    runToCompletion(a);
    runToCompletion(b);
    EXPECT_EQ(a.now(), b.now());
    EXPECT_EQ(a.saveSnapshot().toBytes(), b.saveSnapshot().toBytes());
}

// --- The versioned container -------------------------------------------

TEST(SnapshotContainer, RoundTripIsByteStable)
{
    Simulator sim = makeSim(testConfig(2), streamingKernel(), 50);
    for (int c = 0; c < 100; ++c)
        sim.step();
    const Snapshot snap = sim.saveSnapshot();
    const Bytes bytes = snap.toBytes();
    const Snapshot back = Snapshot::fromBytes(bytes);
    EXPECT_EQ(back.configHash, snap.configHash);
    EXPECT_EQ(back.payload, snap.payload);
    EXPECT_EQ(back.toBytes(), bytes);
}

TEST(SnapshotContainer, RejectsCorruptInput)
{
    Simulator sim = makeSim(testConfig(1), streamingKernel(), 20);
    for (int c = 0; c < 50; ++c)
        sim.step();
    const Bytes good = sim.saveSnapshot().toBytes();

    Bytes bad_magic = good;
    bad_magic[0] ^= 0xff;
    EXPECT_THROW(Snapshot::fromBytes(bad_magic), SnapshotError);

    // Version-mismatch rejection: a future (unknown) format version
    // must be refused, never half-parsed.
    Bytes bad_version = good;
    bad_version[4] += 1;
    EXPECT_THROW(Snapshot::fromBytes(bad_version), SnapshotError);

    Bytes truncated = good;
    truncated.resize(truncated.size() / 2);
    EXPECT_THROW(Snapshot::fromBytes(truncated), SnapshotError);

    Bytes trailing = good;
    trailing.push_back(0);
    EXPECT_THROW(Snapshot::fromBytes(trailing), SnapshotError);

    Bytes bad_payload = good;
    bad_payload[24] ^= 0x55;  // first payload byte: checksum must trip
    EXPECT_THROW(Snapshot::fromBytes(bad_payload), SnapshotError);

    EXPECT_THROW(Snapshot::fromBytes(Bytes{}), SnapshotError);
}

TEST(SnapshotContainer, RejectsConfigMismatch)
{
    Simulator a = makeSim(testConfig(2), streamingKernel(), 20);
    const Snapshot snap = a.saveSnapshot();

    SimConfig other = testConfig(2);
    other.l2Latency = 64;
    Simulator b = makeSim(other, streamingKernel(), 20);
    EXPECT_THROW(b.restoreSnapshot(snap), SnapshotError);

    // Same config: accepted.
    Simulator c = makeSim(testConfig(2), streamingKernel(), 20);
    EXPECT_NO_THROW(c.restoreSnapshot(snap));
}

TEST(SnapshotContainer, RejectsInFlightRegisterOutOfRange)
{
    // The checksum seals whatever its producer wrote, and the register
    // files index unchecked on the hot path, so restore bounds every
    // renamed register: one out of range must be refused, not indexed.
    Simulator sim = makeSim(testConfig(1), streamingKernel(), 20);
    DynInst *victim = nullptr;
    for (int c = 0; c < 200 && !victim; ++c) {
        sim.step();
        for (DynInst &di : sim.context(0).rob)
            if (di.physDst != kNoPhysReg) {
                victim = &di;
                break;
            }
    }
    ASSERT_NE(victim, nullptr);
    victim->physDst =
        PhysReg(sim.context(0).file(victim->ti.dst.cls).size());
    const Snapshot snap = sim.saveSnapshot();
    Simulator fresh = makeSim(testConfig(1), streamingKernel(), 20);
    EXPECT_THROW(fresh.restoreSnapshot(snap), SnapshotError);
}

TEST(SnapshotContainer, RejectsPolicyRotationOutOfRange)
{
    // Each policy saves its rotation base, and the stage walks start
    // from it. The rotation advances once per cycle from 0, so a base
    // other than the cycle mod the thread count must be refused: one at
    // or past the thread count, and one that names a thread but is out
    // of phase (0 on cycle 41 of 2 threads). The fetch and the issue
    // policy's bases are the two u32s before the slot counts and the
    // seven trailing counters.
    const SimConfig cfg = testConfig(2);
    Simulator sim = makeSim(cfg, streamingKernel(), 20);
    for (int c = 0; c < 41; ++c)
        sim.step();
    const Snapshot good = sim.saveSnapshot();
    const std::size_t tail = (2 * kNumSlotUses + 7) * 8;
    ASSERT_GE(good.payload.size(), tail + 8);
    const std::size_t fetch_at = good.payload.size() - tail - 8;
    for (const std::size_t at : {fetch_at, fetch_at + 4}) {
        ByteReader saved(good.payload.data() + at, 4);
        ASSERT_EQ(saved.u32(), 1u) << "41 cycles on 2 threads, at " << at;
        for (const std::uint32_t base : {0u, 2u, 3u, 0xffffffffu}) {
            ByteWriter w;
            w.u32(base);
            const Bytes bytes = w.take();
            Snapshot bad = good;
            std::copy(bytes.begin(), bytes.end(), bad.payload.begin() + at);
            Simulator fresh = makeSim(cfg, streamingKernel(), 20);
            EXPECT_THROW(fresh.restoreSnapshot(bad), SnapshotError)
                << "base " << base << " at " << at;
        }
    }
    Simulator fresh = makeSim(cfg, streamingKernel(), 20);
    EXPECT_NO_THROW(fresh.restoreSnapshot(good));
}

TEST(SnapshotContainer, RejectsInconsistentPerceivedTracker)
{
    // The tracker's payload as save() lays it out: slots (stalls,
    // is-int, active), the free list, then the outstanding count and
    // the four statistics.
    const auto payload = [](const std::vector<bool> &active,
                            const std::vector<std::uint32_t> &free,
                            std::uint32_t outstanding) {
        ByteWriter w;
        w.u64(active.size());
        for (const bool a : active) {
            w.u64(0);
            w.b(false);
            w.b(a);
        }
        w.u64(free.size());
        for (const std::uint32_t tok : free)
            w.u32(tok);
        w.u32(outstanding);
        for (int i = 0; i < 4; ++i)
            w.u64(0);
        return w.data();
    };
    const auto restored = [](const Bytes &bytes) {
        PerceivedTracker t;
        ByteReader r(bytes);
        t.restore(r);
        return t;
    };

    // One slot both open and free: open() would hand the live token
    // out again, and its second close() would panic.
    EXPECT_THROW(restored(payload({true}, {0}, 1)), SnapshotError);
    // A free token out of range, or listed twice.
    EXPECT_THROW(restored(payload({false}, {1}, 0)), SnapshotError);
    EXPECT_THROW(restored(payload({false}, {0, 0}, 0)), SnapshotError);
    // An outstanding count that is not the number of open slots.
    EXPECT_THROW(restored(payload({true, false}, {1}, 2)), SnapshotError);
    EXPECT_THROW(restored(payload({true, false}, {1}, 0)), SnapshotError);

    const PerceivedTracker ok = restored(payload({true, false}, {1}, 1));
    EXPECT_EQ(ok.outstanding(), 1u);
    EXPECT_TRUE(ok.isOpen(0));
    EXPECT_FALSE(ok.isOpen(1));
}

TEST(SnapshotContainer, RejectsBadInFlightMissToken)
{
    // A missed load closes its token when it completes, so restore
    // refuses one whose token is not open, or is another load's.
    const auto missedLoads = [](Simulator &sim) {
        std::vector<DynInst *> loads;
        for (DynInst &di : sim.context(0).rob)
            if (di.state == InstState::Issued && di.loadMissed)
                loads.push_back(&di);
        return loads;
    };
    const auto rejects = [&](std::uint32_t token, bool shared) {
        Simulator sim = makeSim(testConfig(1), streamingKernel(), 20);
        std::vector<DynInst *> loads;
        for (int c = 0; c < 400 && loads.size() < 2; ++c) {
            sim.step();
            loads = missedLoads(sim);
        }
        if (loads.size() < 2) {
            ADD_FAILURE() << "no two missed loads in flight";
            return;
        }
        loads[0]->missToken = shared ? loads[1]->missToken : token;
        const Snapshot snap = sim.saveSnapshot();
        Simulator fresh = makeSim(testConfig(1), streamingKernel(), 20);
        EXPECT_THROW(fresh.restoreSnapshot(snap), SnapshotError);
    };
    rejects(PerceivedTracker::kNoToken, false);
    rejects(1000, false);
    rejects(0, true);
}

/** Step a one-context streaming run until @p pick finds a ROB entry
 *  (at most 400 cycles); null when none turned up. */
template <typename Pick>
DynInst *
stepUntilFound(Simulator &sim, Pick pick)
{
    for (int c = 0; c < 400; ++c) {
        sim.step();
        for (DynInst &di : sim.context(0).rob)
            if (pick(di))
                return &di;
    }
    return nullptr;
}

TEST(SnapshotContainer, RejectsCompletionEventOfAnInstructionNotInFlight)
{
    // The event would complete an instruction that is not executing:
    // the next step would panic.
    Simulator sim = makeSim(testConfig(1), streamingKernel(), 20);
    DynInst *victim = stepUntilFound(sim, [](const DynInst &di) {
        return di.state == InstState::Issued;
    });
    ASSERT_NE(victim, nullptr);
    victim->state = InstState::Completed;
    const Snapshot snap = sim.saveSnapshot();
    Simulator fresh = makeSim(testConfig(1), streamingKernel(), 20);
    EXPECT_THROW(fresh.restoreSnapshot(snap), SnapshotError);
}

TEST(SnapshotContainer, RejectsInFlightInstructionWithoutCompletionEvent)
{
    // Nothing would ever complete it: the run would deadlock.
    Simulator sim = makeSim(testConfig(1), streamingKernel(), 20);
    DynInst *victim = stepUntilFound(sim, [](const DynInst &di) {
        return di.state == InstState::Completed;
    });
    ASSERT_NE(victim, nullptr);
    victim->state = InstState::Issued;
    const Snapshot snap = sim.saveSnapshot();
    Simulator fresh = makeSim(testConfig(1), streamingKernel(), 20);
    EXPECT_THROW(fresh.restoreSnapshot(snap), SnapshotError);
}

TEST(SnapshotContainer, RejectsTwoCompletionEventsForOneInstruction)
{
    // Retarget the event of one issued instruction, marked completed, at
    // another: the counts still match, but one instruction would
    // complete twice.
    Simulator sim = makeSim(testConfig(1), streamingKernel(), 20);
    const Context &ctx = sim.context(0);
    DynInst *first = nullptr;
    DynInst *second = nullptr;
    for (int c = 0; c < 400 && !second; ++c) {
        sim.step();
        first = second = nullptr;
        for (DynInst &di : sim.context(0).rob)
            if (di.state == InstState::Issued)
                (first ? second : first) = &di;
    }
    ASSERT_NE(second, nullptr);
    second->state = InstState::Completed;
    Snapshot snap = sim.saveSnapshot();

    // An event is saved as its cycle, thread and ROB index.
    const auto record = [](Cycle at, std::size_t rob_index) {
        ByteWriter w;
        w.u64(at);
        w.u32(0);
        w.u64(rob_index);
        return w.take();
    };
    const Bytes from = record(second->readyAt, ctx.rob.indexOf(second));
    const Bytes to = record(second->readyAt, ctx.rob.indexOf(first));
    const auto at = std::search(snap.payload.begin(), snap.payload.end(),
                                from.begin(), from.end());
    ASSERT_NE(at, snap.payload.end());
    std::copy(to.begin(), to.end(), at);
    Simulator fresh = makeSim(testConfig(1), streamingKernel(), 20);
    EXPECT_THROW(fresh.restoreSnapshot(snap), SnapshotError);
}

TEST(SnapshotContainer, RejectsQueueCountAboveItsCapacity)
{
    // A snapshot of a machine with larger queues, relabelled as one of a
    // machine whose queue holds one entry: a queue cannot grow past its
    // configured capacity, so restore must refuse the count.
    struct Queue
    {
        const char *name;
        std::uint32_t SimConfig::*capacity;
        std::size_t (*occupancy)(const Context &);
    };
    const std::vector<Queue> queues = {
        {"fetch buffer", &SimConfig::fetchBufferSize,
         [](const Context &c) { return c.fetchBuf.size(); }},
        {"ROB", &SimConfig::robEntries,
         [](const Context &c) { return c.rob.size(); }},
        {"AP queue", &SimConfig::apQueueEntries,
         [](const Context &c) { return c.apQ.size(); }},
        {"IQ", &SimConfig::iqEntries,
         [](const Context &c) { return c.iq.size(); }},
        {"SAQ", &SimConfig::saqEntries,
         [](const Context &c) { return c.saq.size(); }},
    };
    for (const Queue &q : queues) {
        Simulator sim = makeSim(testConfig(1), streamingKernel(), 20);
        for (int c = 0; c < 400 && q.occupancy(sim.context(0)) < 2; ++c)
            sim.step();
        ASSERT_GE(q.occupancy(sim.context(0)), 2u) << q.name;
        SimConfig small = testConfig(1);
        small.*q.capacity = 1;
        Snapshot snap = sim.saveSnapshot();
        snap.configHash = configFingerprint(small);
        Simulator fresh = makeSim(small, streamingKernel(), 20);
        EXPECT_THROW(fresh.restoreSnapshot(snap), SnapshotError) << q.name;
    }
}

TEST(SnapshotContainer, ConfigFingerprintSeparatesConfigs)
{
    const SimConfig base = testConfig(2);
    SimConfig seed = base;
    seed.seed += 1;
    SimConfig warm = base;
    warm.warmupInsts += 1;
    EXPECT_EQ(configFingerprint(base), configFingerprint(testConfig(2)));
    EXPECT_NE(configFingerprint(base), configFingerprint(seed));
    EXPECT_NE(configFingerprint(base), configFingerprint(warm));
}

// --- Warm-start prefix sharing in the sweep engine ---------------------

void
expectSameResult(const RunResult &a, const RunResult &b,
                 const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.insts, b.insts) << what;
    EXPECT_EQ(a.ipc, b.ipc) << what;
    EXPECT_EQ(a.perceivedFp, b.perceivedFp) << what;
    EXPECT_EQ(a.perceivedInt, b.perceivedInt) << what;
    EXPECT_EQ(a.perceivedAll, b.perceivedAll) << what;
    EXPECT_EQ(a.fpMisses, b.fpMisses) << what;
    EXPECT_EQ(a.intMisses, b.intMisses) << what;
    EXPECT_EQ(a.loadMissRatio, b.loadMissRatio) << what;
    EXPECT_EQ(a.storeMissRatio, b.storeMissRatio) << what;
    EXPECT_EQ(a.missRatio, b.missRatio) << what;
    EXPECT_EQ(a.mergedRatio, b.mergedRatio) << what;
    EXPECT_EQ(a.busUtilization, b.busUtilization) << what;
    EXPECT_EQ(a.avgFillLatency, b.avgFillLatency) << what;
    EXPECT_EQ(a.l2MissRatio, b.l2MissRatio) << what;
    EXPECT_EQ(a.dramRowHitRatio, b.dramRowHitRatio) << what;
    EXPECT_EQ(a.dramBusUtilization, b.dramBusUtilization) << what;
    EXPECT_EQ(a.ap.counts, b.ap.counts) << what;
    EXPECT_EQ(a.ep.counts, b.ep.counts) << what;
    EXPECT_EQ(a.mispredictRate, b.mispredictRate) << what;
    EXPECT_EQ(a.threadInsts, b.threadInsts) << what;
    EXPECT_EQ(a.threadSlowdown, b.threadSlowdown) << what;
    EXPECT_EQ(a.weightedSpeedup, b.weightedSpeedup) << what;
    EXPECT_EQ(a.fairnessHmean, b.fairnessHmean) << what;
    EXPECT_EQ(a.fairnessMaxMin, b.fairnessMaxMin) << what;
}

/** A grid whose points share warmup prefixes within seed-stream groups. */
SweepSpec
sharedPrefixSpec()
{
    SweepSpec spec;
    std::uint64_t stream = 0;
    for (const std::uint32_t n : {1u, 2u}) {
        SimConfig cfg = testConfig(n);
        cfg.warmupInsts = 1500;
        for (const std::uint64_t mult : {1u, 2u, 3u})
            spec.addSuiteMix(cfg, 1000 * n * mult, "", stream);
        ++stream;
    }
    return spec;
}

TEST(WarmStartSweep, PrefixKeyGroupsExactlyTheSharedPoints)
{
    const SweepSpec spec = sharedPrefixSpec();
    const auto &jobs = spec.jobs();
    ASSERT_EQ(jobs.size(), 6u);
    // Same group <=> same thread count here.
    EXPECT_EQ(jobs[0].prefixKey(), jobs[1].prefixKey());
    EXPECT_EQ(jobs[0].prefixKey(), jobs[2].prefixKey());
    EXPECT_EQ(jobs[3].prefixKey(), jobs[4].prefixKey());
    EXPECT_EQ(jobs[3].prefixKey(), jobs[5].prefixKey());
    EXPECT_NE(jobs[0].prefixKey(), jobs[3].prefixKey());
    // The measure budget is *not* part of the prefix.
    EXPECT_NE(jobs[0].measureInsts, jobs[1].measureInsts);
}

TEST(WarmStartSweep, RunEqualsWarmupPlusMeasure)
{
    const SweepSpec spec = sharedPrefixSpec();
    const SimJob &job = spec.jobs()[1];
    const RunResult cold = job.run();
    const RunResult warm = job.runMeasured(job.runWarmup());
    expectSameResult(cold, warm, "run() vs runWarmup()+runMeasured()");
}

TEST(WarmStartSweep, AllJobCountsAndModesAreIdentical)
{
    // The acceptance bar: cold/warm x serial/parallel, all four ways,
    // exactly equal in every result field.
    const SweepSpec spec = sharedPrefixSpec();
    const auto cold1 = JobRunner(1, false).run(spec);
    const auto cold8 = JobRunner(8, false).run(spec);
    const auto warm1 = JobRunner(1, true).run(spec);
    const auto warm8 = JobRunner(8, true).run(spec);
    ASSERT_EQ(cold1.size(), spec.size());
    for (std::size_t i = 0; i < spec.size(); ++i) {
        const std::string what = "job " + std::to_string(i);
        expectSameResult(cold1[i], cold8[i], what + " cold1 vs cold8");
        expectSameResult(cold1[i], warm1[i], what + " cold1 vs warm1");
        expectSameResult(cold1[i], warm8[i], what + " cold1 vs warm8");
    }
}

TEST(CheckpointDsl, DslKernelsRestoreByteIdenticallyAtAnyCycle)
{
    // DSL-compiled kernels go through the same {0, 1, mid, last}
    // checkpoint matrix as the built-ins. pointer_chase exercises the
    // Chain stream's serialized walk offset; hash_join the
    // self-indexing gather.
    for (const char *name : {"pointer_chase", "hash_join"}) {
        const Kernel k = dsl::compileKernel(dsl::readKernelFile(
            std::string(MTDAE_SOURCE_DIR) + "/examples/kernels/" +
            name + ".mk"));
        for (const bool perfect : {true, false})
            expectRestoreEquivalence(
                backendCfg(perfect, PolicyKind::Icount,
                           PolicyKind::RoundRobin),
                k);
    }
}

TEST(CheckpointCli, WarmStartFlagParses)
{
    cli::Options opts;
    std::string error;
    ASSERT_TRUE(cli::parseArgs({"run", "--warm-start=0"}, opts, error))
        << error;
    EXPECT_FALSE(opts.warmStart);
    opts = {};
    ASSERT_TRUE(cli::parseArgs({"run", "--warm-start"}, opts, error))
        << error;
    EXPECT_TRUE(opts.warmStart);
    opts = {};
    EXPECT_TRUE(opts.warmStart);  // default on
    EXPECT_FALSE(cli::parseArgs({"run", "--warm-start=maybe"}, opts,
                                error));
}

} // namespace
} // namespace mtdae
