#include "core/context.hh"

#include <algorithm>
#include <string>

#include "common/log.hh"
#include "common/serialize.hh"

namespace mtdae {

namespace {

void
saveTraceInst(ByteWriter &w, const TraceInst &ti)
{
    w.u8(std::uint8_t(ti.op));
    w.u8(std::uint8_t(ti.dst.cls));
    w.u8(ti.dst.idx);
    for (const RegRef &s : ti.src) {
        w.u8(std::uint8_t(s.cls));
        w.u8(s.idx);
    }
    w.u64(ti.pc);
    w.u64(ti.addr);
    w.b(ti.taken);
}

TraceInst
restoreTraceInst(ByteReader &r)
{
    TraceInst ti;
    ti.op = Opcode(r.u8());
    ti.dst.cls = RegClass(r.u8());
    ti.dst.idx = r.u8();
    for (RegRef &s : ti.src) {
        s.cls = RegClass(r.u8());
        s.idx = r.u8();
    }
    ti.pc = r.u64();
    ti.addr = r.u64();
    ti.taken = r.b();
    return ti;
}

void
saveDynInst(ByteWriter &w, const DynInst &di)
{
    saveTraceInst(w, di.ti);
    w.u64(di.seq);
    w.u8(std::uint8_t(di.unit));
    w.u8(std::uint8_t(di.state));
    w.u16(di.physDst);
    w.u16(di.oldPhysDst);
    for (const PhysReg p : di.physSrc)
        w.u16(p);
    w.u64(di.dispatchedAt);
    w.u64(di.readyAt);
    w.b(di.mispredicted);
    w.b(di.loadMissed);
    w.b(di.forwarded);
    w.u32(di.missToken);
}

/** The physical register renamed for @p ref, as restored: an index
 *  into @p ctx's file of its class, which the hot path uses unchecked,
 *  or kNoPhysReg when the instruction names no such register. */
PhysReg
restorePhysReg(ByteReader &r, const Context &ctx, const RegRef &ref)
{
    const PhysReg reg = r.u16();
    if (ref.valid() ? reg >= ctx.file(ref.cls).size() : reg != kNoPhysReg)
        throw SnapshotError("in-flight register out of range in snapshot");
    return reg;
}

void
restoreDynInst(ByteReader &r, const Context &ctx, DynInst &di)
{
    di.ti = restoreTraceInst(r);
    di.seq = r.u64();
    di.unit = Unit(r.u8());
    di.state = InstState(r.u8());
    di.physDst = restorePhysReg(r, ctx, di.ti.dst);
    di.oldPhysDst = restorePhysReg(r, ctx, di.ti.dst);
    for (int i = 0; i < 3; ++i)
        di.physSrc[i] = restorePhysReg(r, ctx, di.ti.src[i]);
    di.dispatchedAt = r.u64();
    di.readyAt = r.u64();
    di.mispredicted = r.b();
    di.loadMissed = r.b();
    di.forwarded = r.b();
    di.missToken = r.u32();
    // Derived fields, not part of the byte stream: the opcode class is
    // recomputed and the SAQ back-pointer is rebuilt by Context::restore
    // once the SAQ itself exists.
    di.isLoadOp = isLoad(di.ti.op);
    di.isStoreOp = isStore(di.ti.op);
    di.saqEntry = nullptr;
}

} // namespace

RegFile::RegFile(std::uint32_t arch_regs, std::uint32_t phys_regs)
    : ready_(phys_regs, 1),
      producer_(phys_regs),
      map_(arch_regs)
{
    MTDAE_ASSERT(phys_regs > arch_regs,
                 "need more physical than architectural registers");
    // Architectural register i starts mapped to physical i, ready.
    for (std::uint32_t i = 0; i < arch_regs; ++i)
        map_[i] = PhysReg(i);
    freeList_.reserve(phys_regs - arch_regs);
    // Pop from the back: hand out the lowest-numbered registers first.
    for (std::uint32_t i = phys_regs; i > arch_regs; --i)
        freeList_.push_back(PhysReg(i - 1));
}

PhysReg
RegFile::rename(std::uint8_t arch, PhysReg &old_phys)
{
    MTDAE_ASSERT(!freeList_.empty(), "rename with an empty free list");
    const PhysReg fresh = freeList_.back();
    freeList_.pop_back();
    old_phys = map_.at(arch);
    map_.at(arch) = fresh;
    ready_.at(fresh) = 0;
    producer_.at(fresh) = Producer{};
    return fresh;
}

void
RegFile::release(PhysReg r)
{
    MTDAE_ASSERT(r < ready_.size(), "release of a bad physical register");
    ready_.at(r) = 1;
    producer_.at(r) = Producer{};
    freeList_.push_back(r);
}

Context::Context(ThreadId id, const SimConfig &cfg,
                 std::unique_ptr<TraceSource> src)
    : tid(id),
      source(std::move(src)),
      fetchBuf(cfg.fetchBufferSize),
      predictor(makePredictor(cfg)),
      intRegs(SimConfig::kArchIntRegs, cfg.apPhysRegs),
      fpRegs(SimConfig::kArchFpRegs, cfg.epPhysRegs),
      rob(cfg.robEntries),
      apQ(cfg.apQueueEntries),
      iq(cfg.iqEntries),
      saq(cfg.saqEntries)
{
    MTDAE_ASSERT(source, "context without a trace source");
}

bool
Context::operandsReady(const DynInst &di) const
{
    for (int i = 0; i < 3; ++i) {
        if (!di.ti.src[i].valid())
            continue;
        if (!file(di.ti.src[i].cls).ready(di.physSrc[i]))
            return false;
    }
    return true;
}

bool
Context::storeAddrReady(const DynInst &di) const
{
    // src[0] is the address register of both StI and StF.
    if (!di.ti.src[0].valid())
        return true;
    return file(di.ti.src[0].cls).ready(di.physSrc[0]);
}

bool
Context::storeDataReady(const DynInst &di) const
{
    // src[1] is the data register of both StI and StF.
    if (!di.ti.src[1].valid())
        return true;
    return file(di.ti.src[1].cls).ready(di.physSrc[1]);
}

StallClass
Context::stallClass(Unit unit, const SimConfig &cfg) const
{
    const auto &queue = unit == Unit::AP ? apQ : iq;
    if (queue.empty()) {
        // Nothing available: an idle or wrong-path-gated front end.
        return {SlotUse::Idle};
    }
    const DynInst &di = *queue.front();
    if (!cfg.decoupled && di.seq != nextIssueSeq) {
        // Gated by program order (the other unit holds the oldest).
        return {SlotUse::Other};
    }
    std::uint32_t tok = PerceivedTracker::kNoToken;
    switch (stallSource(di, tok)) {
      case Producer::Kind::Load:
        return {SlotUse::WaitMem, tok};
      case Producer::Kind::Fu:
        return {SlotUse::WaitFu};
      case Producer::Kind::None:
        break;
    }
    // Operands ready but not issued: structural (cache port, MSHR,
    // frame conflict) or same-cycle dependence.
    return {SlotUse::Other};
}

Producer::Kind
Context::stallSource(const DynInst &di, std::uint32_t &tok) const
{
    tok = PerceivedTracker::kNoToken;
    Producer::Kind kind = Producer::Kind::None;
    for (int i = 0; i < 3; ++i) {
        if (!di.ti.src[i].valid())
            continue;
        // Stores stall at issue only on their address operand.
        if (di.isStoreOp && i != 0)
            continue;
        const RegFile &rf = file(di.ti.src[i].cls);
        if (rf.ready(di.physSrc[i]))
            continue;
        const Producer &p = rf.producer(di.physSrc[i]);
        // Prefer reporting a load-miss producer: it carries the token
        // the perceived-latency metric needs.
        if (p.kind == Producer::Kind::Load) {
            kind = Producer::Kind::Load;
            if (p.missToken != PerceivedTracker::kNoToken) {
                tok = p.missToken;
                return kind;
            }
        } else if (kind == Producer::Kind::None) {
            kind = p.kind;
        }
    }
    return kind;
}

void
Context::advanceWindows(std::uint64_t n)
{
    const std::uint32_t v = std::uint32_t(iq.size());
    const std::uint32_t m = perceived.outstanding();
    if (n >= kIqWindow) {
        // Every ring slot is overwritten at least once: the windows
        // saturate at n samples of the constant values.
        iqSamples.fill(v);
        iqWindowSum = v * kIqWindow;
        missSamples.fill(m);
        missWindowSum = m * kIqWindow;
        missRun = kIqWindow;
    } else {
        // The samples extend the trailing run when they repeat it.
        const std::uint32_t newest =
            missSamples[(missSampleAt + kIqWindow - 1) % kIqWindow];
        const std::uint64_t run = newest == m ? missRun + n : n;
        missRun = run < kIqWindow ? std::uint32_t(run) : kIqWindow;
        for (std::uint64_t i = 0; i < n; ++i) {
            std::uint32_t &slot = iqSamples[iqSampleAt];
            if (slot != v) {
                iqWindowSum += v - slot;
                slot = v;
            }
            iqSampleAt = (iqSampleAt + 1) % kIqWindow;
            std::uint32_t &mslot = missSamples[missSampleAt];
            if (mslot != m) {
                missWindowSum += m - mslot;
                mslot = m;
            }
            missSampleAt = (missSampleAt + 1) % kIqWindow;
        }
        return;
    }
    iqSampleAt = std::uint32_t((iqSampleAt + n) % kIqWindow);
    missSampleAt = std::uint32_t((missSampleAt + n) % kIqWindow);
}

ThreadState
Context::policyState(const SimConfig &cfg, Cycle now) const
{
    ThreadState s;
    s.tid = tid;
    s.fetchBufOccupancy = std::uint32_t(fetchBuf.size());
    s.apQueueOccupancy = std::uint32_t(apQ.size());
    s.iqOccupancy = std::uint32_t(iq.size());
    s.robOccupancy = std::uint32_t(rob.size());
    s.unresolvedBranches = unresolvedBranches;
    s.outstandingMisses = perceived.outstanding();
    // The windows as of @p now: the `fresh` oldest ring slots would be
    // overwritten by samples of the current values, the rest stay.
    const std::uint64_t behind = now - windowsAt;
    const std::uint32_t fresh =
        behind < kIqWindow ? std::uint32_t(behind) : kIqWindow;
    s.iqOccupancyWindow = fresh * std::uint32_t(iq.size());
    s.missWindow = fresh * s.outstandingMisses;
    s.missWindowUniform = true;
    for (std::uint32_t age = fresh; age < kIqWindow; ++age) {
        s.iqOccupancyWindow += iqSamples[(iqSampleAt + age) % kIqWindow];
        const std::uint32_t m = missSamples[(missSampleAt + age) % kIqWindow];
        s.missWindow += m;
        s.missWindowUniform &= m == s.outstandingMisses;
    }
    s.weight = cfg.threadWeight(tid);
    return s;
}

void
Context::missAndWindowKeys(ThreadState &s) const
{
    s.outstandingMisses = perceived.outstanding();
    s.iqOccupancyWindow = iqWindowSum;
    s.missWindow = missWindowSum;
    // A run covering the window makes every slot equal; after a miss
    // opens or closes, before the next sync, they hold the old count.
    s.missWindowUniform =
        missRun == kIqWindow && missSamples[0] == s.outstandingMisses;
}

void
RegFile::save(ByteWriter &w) const
{
    w.u64(ready_.size());
    for (const std::uint8_t rdy : ready_)
        w.u8(rdy);
    for (const Producer &p : producer_) {
        w.u8(std::uint8_t(p.kind));
        w.u32(p.missToken);
    }
    w.u64(freeList_.size());
    for (const PhysReg r : freeList_)
        w.u16(r);
    w.u64(map_.size());
    for (const PhysReg r : map_)
        w.u16(r);
}

void
RegFile::restore(ByteReader &r)
{
    if (r.u64() != ready_.size())
        throw SnapshotError("physical register count mismatch in snapshot");
    for (std::uint8_t &rdy : ready_)
        rdy = r.u8();
    for (Producer &p : producer_) {
        p.kind = Producer::Kind(r.u8());
        p.missToken = r.u32();
    }
    // Every index below is used unchecked on the hot path.
    const auto index = [&] {
        const PhysReg reg = r.u16();
        if (reg >= ready_.size())
            throw SnapshotError("physical register out of range in snapshot");
        return reg;
    };
    const std::uint64_t free = r.u64();
    if (free > ready_.size() - map_.size())
        throw SnapshotError("free list longer than the rename headroom "
                            "in snapshot");
    freeList_.resize(std::size_t(free));
    for (PhysReg &reg : freeList_)
        reg = index();
    if (r.u64() != map_.size())
        throw SnapshotError("map table size mismatch in snapshot");
    for (PhysReg &reg : map_)
        reg = index();
}

void
Context::save(ByteWriter &w) const
{
    source->save(w);

    w.u64(fetchBuf.size());
    for (const FetchedInst &fi : fetchBuf) {
        saveTraceInst(w, fi.ti);
        w.u64(fi.seq);
        w.b(fi.mispredicted);
    }
    w.u64(replayQ.size());
    for (const TraceInst &ti : replayQ)
        saveTraceInst(w, ti);
    saveTraceInst(w, pendingInst);
    w.b(hasPending);
    w.b(traceDone);
    w.u32(unresolvedBranches);
    w.b(fetchBlocked);
    w.u64(blockingBranchSeq);
    w.u64(fetchResumeAt);
    predictor->save(w);

    intRegs.save(w);
    fpRegs.save(w);

    w.u64(rob.size());
    for (const DynInst &di : rob)
        saveDynInst(w, di);
    w.u64(apQ.size());
    for (const DynInst *di : apQ)
        w.u64(rob.indexOf(di));
    w.u64(iq.size());
    for (const DynInst *di : iq)
        w.u64(rob.indexOf(di));
    w.u64(saq.size());
    for (const SaqEntry &e : saq) {
        w.u64(rob.indexOf(e.inst));
        w.u64(e.seq);
        w.b(e.addrValid);
        w.u64(e.addr);
    }

    w.u64(nextSeq);
    w.u64(nextIssueSeq);
    perceived.save(w);
    w.u64(graduated);

    for (const std::uint32_t s : iqSamples)
        w.u32(s);
    w.u32(iqSampleAt);
    w.u32(iqWindowSum);

    for (const std::uint32_t s : missSamples)
        w.u32(s);
    w.u32(missSampleAt);
    w.u32(missWindowSum);
    w.u64(graduatedBase);
}

void
Context::restore(ByteReader &r)
{
    source->restore(r);

    // A ring cannot grow past its configured capacity.
    const auto count = [&](const auto &ring, const char *what) {
        const std::uint64_t n = r.u64();
        if (n > ring.capacity())
            throw SnapshotError(std::string(what) +
                                " count above its capacity in snapshot");
        return std::size_t(n);
    };
    fetchBuf.clear();
    for (std::size_t n = count(fetchBuf, "fetch buffer"); n > 0; --n) {
        FetchedInst &fi = fetchBuf.emplace_back();
        fi.ti = restoreTraceInst(r);
        fi.seq = r.u64();
        fi.mispredicted = r.b();
    }
    replayQ.resize(r.u64());
    for (TraceInst &ti : replayQ)
        ti = restoreTraceInst(r);
    pendingInst = restoreTraceInst(r);
    hasPending = r.b();
    traceDone = r.b();
    unresolvedBranches = r.u32();
    fetchBlocked = r.b();
    blockingBranchSeq = r.u64();
    fetchResumeAt = r.u64();
    predictor->restore(r);

    intRegs.restore(r);
    fpRegs.restore(r);

    rob.clear();
    for (std::size_t n = count(rob, "ROB"); n > 0; --n)
        restoreDynInst(r, *this, rob.emplace_back());
    auto readRobPtr = [&]() -> DynInst * {
        const std::uint64_t idx = r.u64();
        if (idx >= rob.size())
            throw SnapshotError("ROB index out of range in snapshot");
        return &rob[std::size_t(idx)];
    };
    apQ.clear();
    for (std::size_t n = count(apQ, "AP queue"); n > 0; --n)
        apQ.push_back(readRobPtr());
    iq.clear();
    for (std::size_t n = count(iq, "IQ"); n > 0; --n)
        iq.push_back(readRobPtr());
    saq.clear();
    for (std::size_t n = count(saq, "SAQ"); n > 0; --n) {
        SaqEntry &e = saq.emplace_back();
        e.inst = readRobPtr();
        e.seq = r.u64();
        e.addrValid = r.b();
        e.addr = r.u64();
    }
    // Rebuild the store -> SAQ-slot back-pointers and the deposited-word
    // index (derived state; ring elements stay where they are until the
    // entry is popped).
    saqWords.clear();
    for (SaqEntry &e : saq) {
        e.inst->saqEntry = &e;
        if (e.addrValid)
            saqDeposit(e.addr);
    }

    nextSeq = r.u64();
    nextIssueSeq = r.u64();
    perceived.restore(r);
    // Each missed load in flight closes its token at completion: it
    // must hold an open one, and no other load the same.
    std::vector<std::uint32_t> held;
    for (const DynInst &di : rob) {
        if (di.state != InstState::Issued || !di.loadMissed)
            continue;
        if (!perceived.isOpen(di.missToken) ||
            std::find(held.begin(), held.end(), di.missToken) != held.end())
            throw SnapshotError("in-flight load holds a closed or shared "
                                "perceived-latency token in snapshot");
        held.push_back(di.missToken);
    }
    graduated = r.u64();

    for (std::uint32_t &s : iqSamples)
        s = r.u32();
    iqSampleAt = r.u32();
    iqWindowSum = r.u32();

    for (std::uint32_t &s : missSamples)
        s = r.u32();
    missSampleAt = r.u32();
    missWindowSum = r.u32();
    graduatedBase = r.u64();

    // The run depends on the ring alone, so the recount reproduces the
    // continued run's exactly.
    missRun = trailingMissRun();
}

std::uint32_t
Context::trailingMissRun() const
{
    const auto aged = [&](std::uint32_t age) {
        return missSamples[(missSampleAt + kIqWindow - 1 - age) % kIqWindow];
    };
    std::uint32_t run = 1;
    while (run < kIqWindow && aged(run) == aged(0))
        ++run;
    return run;
}

bool
Context::saqForwards(InstSeq load_seq, Addr load_addr) const
{
    const Addr word = load_addr >> 3;
    for (std::size_t i = saq.size(); i-- > 0;) {
        const SaqEntry &e = saq[i];
        if (e.seq >= load_seq)
            continue;
        if (e.addrValid && (e.addr >> 3) == word)
            return true;
    }
    return false;
}

} // namespace mtdae
