#include "core/simulator.hh"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <numeric>

#include "common/log.hh"

namespace mtdae {

Simulator::Simulator(const SimConfig &cfg,
                     std::vector<std::unique_ptr<TraceSource>> sources)
    : cfg_((cfg.validate(), cfg)),  // before anything is built from it
      mem_(cfg_),
      fetchPolicy_(cfg_),
      issuePolicy_(cfg_),
      windowsRead_(fetchPolicy_.readsWindows() ||
                   issuePolicy_.readsWindows()),
      issueRank_{RankedWalk(cfg.numThreads), RankedWalk(cfg.numThreads)},
      dispatchRank_(cfg.numThreads),
      fetchRank_(cfg.numThreads)
{
    MTDAE_ASSERT(sources.size() == cfg_.numThreads,
                 "need exactly one trace source per hardware context (",
                 sources.size(), " given, ", cfg_.numThreads, " threads)");
    for (ThreadId t = 0; t < cfg_.numThreads; ++t)
        contexts_.push_back(
            std::make_unique<Context>(t, cfg_, std::move(sources[t])));
    rebuildDerived();
}

void
Simulator::rebuildDerived()
{
    const std::uint32_t n = cfg_.numThreads;
    keys_.clear();
    for (auto &ctxp : contexts_) {
        ctxp->windowsAt = now_;
        keys_.push_back(ctxp->policyState(cfg_, now_));
    }
    for (Waiters *w : {&loads_, &stores_}) {
        w->at.assign(n, Waiter{});
        w->set = ThreadSet(n);
    }
    waitingLines_.assign(kLineBuckets, 0);
    for (std::size_t u = 0; u < heads_.size(); ++u) {
        heads_[u].assign(n, HeadClass{});
        dirtyHeads_[u].resize(n);
        std::iota(dirtyHeads_[u].begin(), dirtyHeads_[u].end(), 0u);
        freeSlotCycles_[u] = 0;
        issueSet_[u] = ThreadSet(n);
    }
    dispatchSet_ = ThreadSet(n);
    fetchSet_ = ThreadSet(n);
    graduateSet_ = ThreadSet(n);
    all_ = ThreadSet(n);
    admitted_ = ThreadSet(n);
    for (ThreadId t = 0; t < n; ++t) {
        for (const Unit unit : {Unit::AP, Unit::EP})
            issueSet_[std::size_t(unit)].assign(t, queued(unit, t) > 0);
        dispatchSet_.assign(t, dispatchable(t));
        fetchSet_.assign(t, keys_[t].fetchBufOccupancy < cfg_.fetchBufferSize);
        graduateSet_.assign(t, keys_[t].robOccupancy > 0);
    }
    all_.fill();
}

// ---------------------------------------------------------------------
// Lazily kept per-thread statistics
// ---------------------------------------------------------------------

void
Simulator::syncWindows(Context &ctx)
{
    if (ctx.syncWindows(now_))
        ctx.missAndWindowKeys(keys_[ctx.tid]);
}

void
Simulator::syncAllWindows()
{
    for (auto &ctxp : contexts_)
        syncWindows(*ctxp);
}

void
Simulator::chargeStalls(Unit unit, ThreadId t)
{
    const std::size_t u = std::size_t(unit);
    HeadClass &h = heads_[u][t];
    const std::uint64_t owed = freeSlotCycles_[u] - h.chargedTo;
    if (h.cls.token != PerceivedTracker::kNoToken && owed > 0)
        contexts_[t]->perceived.stall(h.cls.token, owed);
    h.chargedTo = freeSlotCycles_[u];
}

void
Simulator::chargeAllStalls()
{
    for (const Unit unit : {Unit::AP, Unit::EP})
        for (ThreadId t = 0; t < cfg_.numThreads; ++t)
            if (!heads_[std::size_t(unit)][t].dirty)
                chargeStalls(unit, t);
}

void
Simulator::classifyDirtyHeads(Unit unit)
{
    const std::size_t u = std::size_t(unit);
    for (const ThreadId t : dirtyHeads_[u]) {
        HeadClass &h = heads_[u][t];
        const Context &ctx = *contexts_[t];
        const auto &queue = unit == Unit::AP ? ctx.apQ : ctx.iq;
        h.srcs = queue.empty() ? HeadClass{}.srcs : queue.front()->physSrc;
        h.cls = ctx.stallClass(unit, cfg_);
        if (h.cls.reason == SlotUse::WaitMem ||
            h.cls.reason == SlotUse::WaitFu ||
            (!cfg_.decoupled && !queue.empty() &&
             queue.front()->seq != ctx.nextIssueSeq))
            issueSet_[u].erase(t);  // blocked while the class holds
        h.chargedTo = freeSlotCycles_[u];
        h.dirty = false;
    }
    dirtyHeads_[u].clear();
}

std::optional<StallClass>
Simulator::cachedStallClass(Unit unit, ThreadId t) const
{
    const HeadClass &h = heads_[std::size_t(unit)].at(t);
    if (h.dirty)
        return std::nullopt;
    return h.cls;
}

// ---------------------------------------------------------------------
// Completion (writeback)
// ---------------------------------------------------------------------

void
Simulator::processCompletions()
{
    events_.drain(now_, [&](const Event &ev) {
        DynInst *di = ev.inst;
        Context &ctx = *contexts_[ev.tid];

        MTDAE_ASSERT(di->state == InstState::Issued,
                     "completion of a non-issued instruction");
        di->state = InstState::Completed;
        // The ROB head, or the producer of a store head's data, ends a
        // graduation wait.
        if (!graduateSet_.contains(ev.tid) && !stores_.set.contains(ev.tid))
            graduateSet_.insert(ev.tid);

        if (di->ti.dst.valid()) {
            // Only a head reading the register can change class, and a
            // closing miss must first collect the stalls its waiters
            // are owed.
            for (const Unit unit : {Unit::AP, Unit::EP}) {
                const auto &srcs = heads_[std::size_t(unit)][ev.tid].srcs;
                if (srcs[0] == di->physDst || srcs[1] == di->physDst ||
                    srcs[2] == di->physDst)
                    invalidateHead(unit, ev.tid);
            }
            ctx.file(di->ti.dst.cls).setReady(di->physDst);
        }

        if (di->loadMissed) {
            syncWindows(ctx);
            ctx.perceived.close(di->missToken);
            ctx.missAndWindowKeys(keys_[ev.tid]);
        }

        if (di->isCondBr()) {
            MTDAE_ASSERT(ctx.unresolvedBranches > 0,
                         "branch resolution underflow");
            ctx.unresolvedBranches -= 1;
            keys_[ev.tid].unresolvedBranches = ctx.unresolvedBranches;
            if (di->mispredicted && ctx.fetchBlocked &&
                ctx.blockingBranchSeq == di->seq) {
                ctx.fetchBlocked = false;
                ctx.fetchResumeAt = now_ + cfg_.redirectPenalty;
            }
        }
    });
}

// ---------------------------------------------------------------------
// Issue
// ---------------------------------------------------------------------

bool
Simulator::tryIssue(Context &ctx, DynInst &di)
{
    // Non-decoupled mode: the instruction queues are disabled, so a
    // thread issues in strict program order across both units.
    if (!cfg_.decoupled && di.seq != ctx.nextIssueSeq)
        return false;

    if (di.isStoreOp) {
        // A store issues on the AP when its *address* operands are
        // ready; the data may arrive later (possibly from the EP).
        if (!ctx.storeAddrReady(di))
            return false;
    } else {
        if (!ctx.operandsReady(di))
            return false;
    }

    Cycle ready_at;
    if (di.isLoadOp) {
        if (ctx.saqForwardsFast(di.ti.addr)) {
            // Forwarded from an older store in the SAQ: no cache access.
            di.forwarded = true;
            ready_at = now_ + 1;
            forwardedLoads_ += 1;
        } else {
            const MemResult r = mem_.load(di.ti.addr, now_);
            if (!r.accepted) {
                // No free MSHR, or the frame filling another line: the
                // head cannot turn forwardable (every older store has
                // issued), so it waits for the event that can admit it
                // (Waiter). Port pressure: next cycle.
                if (r.reject != MemReject::NoPort)
                    wait(loads_, issueSet_[std::size_t(Unit::AP)], ctx.tid,
                         di.ti.addr, r.reject);
                return false;
            }
            if (r.miss() && !r.merged)
                wakeLine(mem_.lineOf(di.ti.addr));
            ready_at = r.readyAt;
            if (r.miss()) {
                syncWindows(ctx);
                di.loadMissed = true;
                di.missToken =
                    ctx.perceived.open(di.ti.op == Opcode::LdI);
                ctx.file(di.ti.dst.cls).producer(di.physDst).missToken =
                    di.missToken;
                ctx.missAndWindowKeys(keys_[ctx.tid]);
            }
        }
    } else if (di.isStoreOp) {
        // Address generation; the store's SAQ entry (back-pointer set
        // at dispatch) becomes visible to loads.
        SaqEntry *e = di.saqEntry;
        MTDAE_ASSERT(e && e->inst == &di,
                     "store issued without a SAQ entry");
        e->addrValid = true;
        e->addr = di.ti.addr;
        ctx.saqDeposit(di.ti.addr);
        ready_at = now_ + cfg_.apLatency;
    } else {
        const std::uint32_t lat =
            di.unit == Unit::AP ? cfg_.apLatency : cfg_.epLatency;
        ready_at = now_ + lat;
    }

    di.state = InstState::Issued;
    di.readyAt = ready_at;
    // Writeback opens a cycle, so a zero-latency L1 hit
    // (--l1-hit-latency=0) completes at the next one.
    events_.push(Event{std::max(ready_at, now_ + 1), ctx.tid, &di});
    if (!cfg_.decoupled)
        ctx.nextIssueSeq = di.seq + 1;
    return true;
}

std::uint32_t
Simulator::issueUnit(Unit unit, std::uint32_t &slots)
{
    const std::size_t u = std::size_t(unit);
    const RankedWalk &rank = issueRank_[u];
    std::uint32_t issued = 0;
    // A head whose clean class proves it blocked, or a waiting load, is
    // not in the set: it waits for its event without a Context access.
    // With an MSHR free the AP walk visits the waiting loads too.
    const bool admit = unit == Unit::AP && admits(issueSet_[u], loads_);
    const ThreadSet &set = admit ? admitted_ : issueSet_[u];
    const auto live = [&](std::size_t w) { return set.word(w); };
    RankedWalk::Cursor c = rank.begin(live);
    for (ThreadId t; slots > 0 && (t = rank.next(c, live)) != kNoThread;) {
        if (admit && loads_.set.contains(t) &&
            !mayAttempt(loads_, issueSet_[u], t))
            continue;
        ThreadState &key = keys_[t];
        std::uint32_t &queued =
            unit == Unit::AP ? key.apQueueOccupancy : key.iqOccupancy;
        Context &ctx = *contexts_[t];
        auto &queue = unit == Unit::AP ? ctx.apQ : ctx.iq;
        const std::uint32_t was_queued = queued;
        while (slots > 0 && queued > 0) {
            DynInst *di = queue.front();
            if (!tryIssue(ctx, *di))
                break;
            // The head moves on. Non-decoupled, the program-order gate
            // of the other unit's head moves too; a miss hands a token
            // to whichever head reads the load's register.
            invalidateHead(unit, t);
            if (!cfg_.decoupled || di->loadMissed)
                invalidateHead(unit == Unit::AP ? Unit::EP : Unit::AP, t);
            if (unit == Unit::EP)
                syncWindows(ctx);
            queue.pop_front();
            queued -= 1;
            slots -= 1;
            issued += 1;
        }
        if (queued != was_queued)
            dispatchSet_.assign(t, dispatchable(t));  // a queue entry freed
        if (queued == 0)
            issueSet_[u].erase(t);
    }
    return issued;
}

void
Simulator::accountSlots(Unit unit, std::uint32_t free_slots)
{
    SlotBreakdown &bd = unit == Unit::AP ? slotsAp_ : slotsEp_;
    const std::uint32_t width =
        unit == Unit::AP ? cfg_.apUnits : cfg_.epUnits;
    bd.add(SlotUse::Useful, width - free_slots);
    if (free_slots == 0)
        return;

    // Spread the unused slots over the heads' stall classes (paper
    // Figure 3), walking the *same* ranking the issue stage just used
    // so the attribution can never drift from the arbitration: only
    // its first free_slots threads (wrapping) are read. Only the
    // classes an event changed are recomputed.
    classifyDirtyHeads(unit);
    const std::vector<HeadClass> &heads = heads_[std::size_t(unit)];
    issueRank_[std::size_t(unit)].forFirst(
        free_slots, [&](ThreadId t) { bd.add(heads[t].cls.reason); });
    // A free slot existed, so every head stalled on an outstanding
    // load miss perceives one more cycle of it; the class collects
    // them when it is invalidated (chargeStalls).
    freeSlotCycles_[std::size_t(unit)] += 1;
}

void
Simulator::fixIssueRankings()
{
    for (const Unit unit : {Unit::AP, Unit::EP})
        issueRank_[std::size_t(unit)].fix(
            issuePolicy_.issueRanking(unit, keys_), keys_, all_);
}

void
Simulator::issueStage()
{
    // Both units' rankings hold for the whole cycle (both passes and
    // the slot accounting).
    std::uint32_t slots_ap = cfg_.apUnits;
    std::uint32_t slots_ep = cfg_.epUnits;
    // Two passes so that, in non-decoupled mode, an AP instruction
    // unblocked by an EP issue this cycle (or vice versa) can still
    // dual-issue, as an in-order superscalar would. Decoupled, nothing
    // an issue does can unblock another head within the cycle (ready
    // bits change at completion; ports and MSHRs only fill up), so a
    // second pass would find every head as the first left it.
    const int passes = cfg_.decoupled ? 1 : 2;
    for (int pass = 0; pass < passes; ++pass) {
        std::uint32_t issued = 0;
        issued += issueUnit(Unit::AP, slots_ap);
        issued += issueUnit(Unit::EP, slots_ep);
        if (issued == 0)
            break;
    }
    accountSlots(Unit::AP, slots_ap);
    accountSlots(Unit::EP, slots_ep);
}

// ---------------------------------------------------------------------
// Dispatch (rename & steer)
// ---------------------------------------------------------------------

bool
Simulator::tryDispatch(Context &ctx)
{
    MTDAE_ASSERT(!ctx.fetchBuf.empty(), "dispatch from an empty buffer");
    if (!canDispatch(ctx))
        return false;
    const FetchedInst &fi = ctx.fetchBuf.front();
    const TraceInst &ti = fi.ti;
    const Unit unit = ti.unit();
    const bool is_store = isStore(ti.op);

    ThreadState &key = keys_[ctx.tid];
    if (key.robOccupancy++ == 0)
        graduateSet_.insert(ctx.tid);  // a ROB head, which cannot wait
    ctx.rob.emplace_back();
    DynInst &di = ctx.rob.back();
    di.ti = ti;
    di.seq = fi.seq;
    di.unit = unit;
    di.isLoadOp = isLoad(ti.op);
    di.isStoreOp = is_store;
    di.dispatchedAt = now_;
    di.mispredicted = fi.mispredicted;

    for (int i = 0; i < 3; ++i)
        if (ti.src[i].valid())
            di.physSrc[i] = ctx.file(ti.src[i].cls).map(ti.src[i].idx);

    if (ti.dst.valid()) {
        RegFile &rf = ctx.file(ti.dst.cls);
        di.physDst = rf.rename(ti.dst.idx, di.oldPhysDst);
        rf.producer(di.physDst).kind = di.isLoadOp
            ? Producer::Kind::Load : Producer::Kind::Fu;
    }

    if (ti.op == Opcode::Nop) {
        // Nops retire without issuing.
        di.state = InstState::Completed;
    } else {
        std::uint32_t &queued =
            unit == Unit::AP ? key.apQueueOccupancy : key.iqOccupancy;
        if (queued == 0) {
            invalidateHead(unit, ctx.tid);  // a new head: no longer Idle
            issueSet_[std::size_t(unit)].insert(ctx.tid);
        }
        if (unit == Unit::AP) {
            ctx.apQ.push_back(&di);
        } else {
            syncWindows(ctx);
            ctx.iq.push_back(&di);
        }
        queued += 1;
        if (is_store) {
            // Ring elements never move, so the store can keep a direct
            // pointer to its entry for the address deposit at issue (no
            // SAQ walk).
            ctx.saq.push_back(SaqEntry{&di, di.seq, false, 0});
            di.saqEntry = &ctx.saq.back();
        }
    }

    ctx.fetchBuf.pop_front();
    key.fetchBufOccupancy -= 1;
    return true;
}

void
Simulator::dispatchStage()
{
    std::uint32_t budget = cfg_.dispatchWidth;
    // tryDispatch refuses a full ROB first, whatever the buffer holds,
    // so such a thread is not in the set, nor is one still waiting for
    // the event that can unblock it.
    const auto live = [&](std::size_t w) { return dispatchSet_.word(w); };
    RankedWalk::Cursor c = dispatchRank_.begin(live);
    for (ThreadId t;
         budget > 0 && (t = dispatchRank_.next(c, live)) != kNoThread;) {
        const ThreadState &key = keys_[t];
        Context &ctx = *contexts_[t];
        bool waits = false;
        while (budget > 0 && key.fetchBufOccupancy > 0) {
            if (!tryDispatch(ctx)) {
                waits = true;
                break;
            }
            budget -= 1;
        }
        dispatchSet_.assign(t, !waits && dispatchable(t));
        fetchSet_.assign(t, key.fetchBufOccupancy < cfg_.fetchBufferSize);
    }
}

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

bool
Simulator::ensurePending(Context &ctx)
{
    if (ctx.hasPending)
        return true;
    if (ctx.traceDone)
        return false;
    if (!ctx.source->next(ctx.pendingInst)) {
        ctx.traceDone = true;
        return false;
    }
    ctx.hasPending = true;
    return true;
}

const TraceInst *
Simulator::nextInst(Context &ctx)
{
    // Flushed instructions are older than the trace lookahead (they
    // were fetched before it), so the replay queue drains first.
    if (!ctx.replayQ.empty())
        return &ctx.replayQ.front();
    if (!ensurePending(ctx))
        return nullptr;
    return &ctx.pendingInst;
}

void
Simulator::consumeNext(Context &ctx)
{
    if (!ctx.replayQ.empty())
        ctx.replayQ.pop_front();
    else
        ctx.hasPending = false;
}

void
Simulator::flushFetchBuffer(Context &ctx)
{
    MTDAE_ASSERT(!ctx.fetchBuf.empty(), "flush of an empty fetch buffer");
    const InstSeq first = ctx.fetchBuf.front().seq;
    // Youngest first, so push_front keeps program order and lands the
    // block ahead of any earlier flush's not-yet-replayed leftovers.
    for (std::size_t i = ctx.fetchBuf.size(); i-- > 0;) {
        const FetchedInst &fi = ctx.fetchBuf[i];
        if (isCondBranch(fi.ti.op)) {
            // Unwind the fetch-time speculation accounting; the branch
            // re-predicts (against the updated predictor) at replay.
            MTDAE_ASSERT(ctx.unresolvedBranches > 0,
                         "flush branch-count underflow");
            ctx.unresolvedBranches -= 1;
            if (fi.mispredicted && ctx.fetchBlocked &&
                ctx.blockingBranchSeq == fi.seq)
                ctx.fetchBlocked = false;  // the gate never dispatched
        }
        ctx.replayQ.push_front(fi.ti);
    }
    ctx.fetchBuf.clear();
    dispatchSet_.erase(ctx.tid);  // the head is gone, and any wait with it
    // Replayed instructions get fresh sequence numbers; nothing
    // younger than the squashed block was ever fetched.
    ctx.nextSeq = first;
    ThreadState &key = keys_[ctx.tid];
    key.fetchBufOccupancy = 0;
    key.unresolvedBranches = ctx.unresolvedBranches;
    fetchSet_.insert(ctx.tid);
}

void
Simulator::fetchThread(Context &ctx)
{
    std::uint32_t count = 0;
    while (count < cfg_.fetchWidth &&
           ctx.fetchBuf.size() < cfg_.fetchBufferSize) {
        const TraceInst *tip = nextInst(ctx);
        if (!tip)
            break;
        const TraceInst ti = *tip;
        // Control speculation limit: cannot fetch past another
        // conditional branch while the maximum are unresolved.
        if (isCondBranch(ti.op) &&
            ctx.unresolvedBranches >= cfg_.maxUnresolvedBranches)
            break;

        FetchedInst fi;
        fi.ti = ti;
        fi.seq = ctx.nextSeq++;
        consumeNext(ctx);
        count += 1;

        bool stop = false;
        if (isCondBranch(ti.op)) {
            ctx.unresolvedBranches += 1;
            condBranches_ += 1;
            const bool predicted = ctx.predictor->predict(ti.pc);
            ctx.predictor->update(ti.pc, ti.taken);
            if (predicted != ti.taken) {
                // Trace-driven wrong path: fetch is gated until the
                // branch resolves, then redirected.
                mispredicts_ += 1;
                fi.mispredicted = true;
                ctx.fetchBlocked = true;
                ctx.blockingBranchSeq = fi.seq;
                stop = true;
            } else if (ti.taken) {
                stop = true;  // a taken branch ends the fetch block
            }
        } else if (ti.op == Opcode::Jmp) {
            stop = true;
        }

        ctx.fetchBuf.push_back(fi);
        if (stop)
            break;
    }
    ThreadState &key = keys_[ctx.tid];
    // A buffer that was empty held no head to wait on.
    if (key.fetchBufOccupancy == 0)
        dispatchSet_.assign(ctx.tid, !ctx.fetchBuf.empty() &&
                                         key.robOccupancy < cfg_.robEntries);
    key.fetchBufOccupancy = std::uint32_t(ctx.fetchBuf.size());
    key.unresolvedBranches = ctx.unresolvedBranches;
    fetchSet_.assign(ctx.tid, key.fetchBufOccupancy < cfg_.fetchBufferSize);
}

void
Simulator::flushStage()
{
    // Gating pass, before the fetch ranking: a flush-style policy
    // squashes the pressured threads' not-yet-dispatched buffers,
    // handing their dispatch slots to the other threads.
    if (!fetchPolicy_.flushes())
        return;
    for (const ThreadState &key : keys_)
        if (key.fetchBufOccupancy > 0 && fetchPolicy_.shouldFlush(key))
            flushFetchBuffer(*contexts_[key.tid]);
}

void
Simulator::fetchStage()
{
    // The policy ranked the threads with room in their buffer (ICOUNT
    // by default: fewest pending-dispatch instructions first over a
    // round-robin base); the first fetchThreadsPerCycle *eligible,
    // non-vetoed* ones in that order get the I-cache ports. A vetoed
    // (gated) thread does not consume a port.
    std::uint32_t ports = cfg_.fetchThreadsPerCycle;
    const auto live = [&](std::size_t w) { return fetchSet_.word(w); };
    RankedWalk::Cursor c = fetchRank_.begin(live);
    for (ThreadId t;
         ports > 0 && (t = fetchRank_.next(c, live)) != kNoThread;) {
        Context &ctx = *contexts_[t];
        if (!ctx.fetchEligible(cfg_, now_) ||
            !fetchPolicy_.mayFetch(keys_[t]))
            continue;
        fetchThread(ctx);
        ports -= 1;
    }
}

// ---------------------------------------------------------------------
// Graduation
// ---------------------------------------------------------------------

bool
Simulator::mayAttempt(Waiters &w, ThreadSet &stage, ThreadId t)
{
    // Its line was not allocated since it waits (wakeLine), so with no
    // MSHR free the L1 refuses it.
    Waiter &h = w.at[t];
    if (now_ < h.until || !mem_.mshrFree())
        return false;
    const MemReject why = mem_.refusal(h.addr);
    if (why == MemReject::NoMshr || why == MemReject::Conflict) {
        h.until = waitUntil(h.line, why);
        return false;
    }
    unwait(w, stage, t);
    return why == MemReject::None;
}

void
Simulator::wait(Waiters &w, ThreadSet &stage, ThreadId t, Addr addr,
                MemReject why)
{
    assert(!w.set.contains(t) && "a waiting head is not attempted");
    const std::uint64_t line = mem_.lineOf(addr);
    w.at[t] = Waiter{addr, line, waitUntil(line, why)};
    w.set.insert(t);
    stage.erase(t);
    waitingLines_[line % kLineBuckets] += 1;
}

void
Simulator::unwait(Waiters &w, ThreadSet &stage, ThreadId t)
{
    // A waiting head is queued (a ROB head) and passed its gates (no
    // blocked class), so back in the set it waits for nothing.
    assert(waitingLines_[w.at[t].line % kLineBuckets] > 0);
    w.set.erase(t);
    stage.insert(t);
    waitingLines_[w.at[t].line % kLineBuckets] -= 1;
}

bool
Simulator::admits(const ThreadSet &stage, const Waiters &w)
{
    if (!mem_.mshrFree() || !w.set.any())
        return false;
    admitted_.assignUnion(stage, w.set);
    return true;
}

void
Simulator::wakeLine(std::uint64_t line)
{
    if (waitingLines_[line % kLineBuckets] == 0)
        return;
    // A walk in progress, as any access could allocate a line, walks
    // the union of its stage set and the waiters (admits()), so moving a
    // woken head from one to the other changes nothing it visits.
    const auto wake = [&](Waiters &w, ThreadSet &stage) {
        const auto members = [&](std::size_t i) { return w.set.word(i); };
        ThreadSet::Cursor c(cfg_.numThreads, 0, members);
        for (ThreadId t; (t = c.next(members)) != kNoThread;)
            if (w.at[t].line == line)
                unwait(w, stage, t);
    };
    wake(loads_, issueSet_[std::size_t(Unit::AP)]);
    wake(stores_, graduateSet_);
}

void
Simulator::graduateStage()
{
    // With an MSHR free the walk visits the waiting stores too; a store
    // whose line a load allocated this cycle is back in the set.
    const bool admit = admits(graduateSet_, stores_);
    const ThreadSet &set = admit ? admitted_ : graduateSet_;
    const auto live = [&](std::size_t w) { return set.word(w); };
    ThreadSet::Cursor c(cfg_.numThreads, 0, live);
    for (ThreadId t; (t = c.next(live)) != kNoThread;) {
        if (admit && stores_.set.contains(t) &&
            !mayAttempt(stores_, graduateSet_, t))
            continue;
        Context &ctx = *contexts_[t];
        std::uint32_t width = cfg_.graduateWidth;
        while (width > 0 && !ctx.rob.empty()) {
            DynInst &di = ctx.rob.front();
            // The store leaves the SAQ and writes the cache when its
            // data is available (FP store data comes from the EP).
            if (di.state != InstState::Completed ||
                (di.isStoreOp && !ctx.storeDataReady(di))) {
                graduateSet_.erase(t);  // waits for a completion
                break;
            }
            if (di.isStoreOp) {
                const MemResult r = mem_.store(di.ti.addr, now_);
                if (!r.accepted) {
                    // No free MSHR, or its frame filling another line:
                    // the store waits for the event that can admit it
                    // (Waiter). Port pressure: next cycle.
                    if (r.reject != MemReject::NoPort)
                        wait(stores_, graduateSet_, t, di.ti.addr, r.reject);
                    break;
                }
                if (r.miss() && !r.merged)
                    wakeLine(mem_.lineOf(di.ti.addr));
                MTDAE_ASSERT(!ctx.saq.empty() &&
                             ctx.saq.front().inst == &di &&
                             ctx.saq.front().addrValid,
                             "SAQ out of order at graduation");
                ctx.saqWithdraw(ctx.saq.front().addr);
                di.saqEntry = nullptr;
                ctx.saq.pop_front();
            }
            if (di.oldPhysDst != kNoPhysReg)
                ctx.file(di.ti.dst.cls).release(di.oldPhysDst);
            di.state = InstState::Graduated;
            ctx.rob.pop_front();
            ctx.graduated += 1;
            totalGraduated_ += 1;
            lastGraduation_ = now_;
            width -= 1;
        }
        keys_[t].robOccupancy = std::uint32_t(ctx.rob.size());
        if (width < cfg_.graduateWidth) {
            // ROB, SAQ or registers freed: no dispatch wait.
            dispatchSet_.assign(t, dispatchable(t));
            if (ctx.rob.empty())
                graduateSet_.erase(t);
        }
    }
}

void
Simulator::finishCycle()
{
    // One rotation step per cycle, matching the historical rrIssue_/
    // rrDispatch_/rrFetch_ counters this layer replaced.
    fetchPolicy_.endCycle();
    issuePolicy_.endCycle();
    now_ += 1;
    // A policy reading the windows gets this cycle's samples now, so
    // all of next cycle's consultations see the same windows.
    if (windowsRead_)
        syncAllWindows();
}

// ---------------------------------------------------------------------
// Idle fast-forward
// ---------------------------------------------------------------------

bool
Simulator::quiescent(SkipProbe &blocker)
{
    // A completion due this cycle wakes the whole pipeline.
    if (events_.due(now_)) {
        blocker = SkipProbe::CompletionDue;
        return false;
    }

    for (ThreadId t = 0; t < cfg_.numThreads; ++t) {
        const Context &ctx = *contexts_[t];

        // Graduation: a Completed ROB head would graduate this cycle,
        // unless it is a store waiting for an event that cannot come
        // this cycle (a wake source): until then the L1 refuses it
        // without side effects.
        if (!ctx.rob.empty() &&
            !(stores_.set.contains(t) && waitBlocked(stores_.at[t]))) {
            const DynInst &head = ctx.rob.front();
            if (head.state == InstState::Completed &&
                (!head.isStoreOp || ctx.storeDataReady(head))) {
                blocker = SkipProbe::Graduable;
                return false;
            }
        }

        // Issue: a unit-queue head passing its gates would issue, or at
        // least attempt an access (a load denied a port retries next
        // cycle; a blocked waiting one does not). Only the
        // heads matter: issueUnit stops a thread's unit at the first
        // non-issuable instruction, and with both heads stuck neither
        // two-pass round can unblock the other unit.
        const auto head_can_issue = [&](const DynInst *di) {
            if (!cfg_.decoupled && di->seq != ctx.nextIssueSeq)
                return false;
            return di->isStoreOp ? ctx.storeAddrReady(*di)
                                 : ctx.operandsReady(*di);
        };
        if ((!ctx.apQ.empty() &&
             !(loads_.set.contains(t) && waitBlocked(loads_.at[t])) &&
             head_can_issue(ctx.apQ.front())) ||
            (!ctx.iq.empty() && head_can_issue(ctx.iq.front()))) {
            blocker = SkipProbe::Issuable;
            return false;
        }
    }

    // Front end, consulted on the same live keys the real stages would
    // see. An eligible thread *vetoed* by a gating policy does
    // not break quiescence — but only while the veto is *stable*
    // (FetchPolicy::vetoStable): occupancies and outstandingMisses are
    // frozen across an idle span, but the trailing windows keep
    // evolving, so a verdict that reads them (the adaptive policy's)
    // can flip mid-span with no other state change. An unstable veto
    // breaks quiescence outright: the cycle is stepped normally, and
    // within at most kPolicyWindowCycles stepped cycles the window
    // saturates and the veto becomes stable. Crucially the unstable
    // branch must NOT peek at the thread's next instruction — the
    // stepping fetch stage never consults the trace of a vetoed
    // thread, and nextInst's lookahead caching would desynchronize the
    // trace-source state from the stepped run's.
    for (const ThreadState &key : keys_) {
        Context &ctx = *contexts_[key.tid];
        if (key.fetchBufOccupancy > 0 &&
            (fetchPolicy_.shouldFlush(key) || canDispatch(ctx))) {
            blocker = SkipProbe::FrontEnd;
            return false;
        }
        if (ctx.fetchEligible(cfg_, now_)) {
            if (!fetchPolicy_.mayFetch(key)) {
                if (!fetchPolicy_.vetoStable(key)) {
                    blocker = SkipProbe::UnstableVeto;
                    return false;
                }
                continue;
            }
            // An eligible thread still fetches nothing when the next
            // instruction is a conditional branch beyond the control
            // speculation limit — and unresolvedBranches cannot drop
            // without an issue or completion, both of which end the
            // span anyway. The peek is idempotent (it caches into
            // pendingInst exactly as the stepping fetch stage would).
            const TraceInst *tip = nextInst(ctx);
            if (tip &&
                !(isCondBranch(tip->op) &&
                  ctx.unresolvedBranches >= cfg_.maxUnresolvedBranches)) {
                blocker = SkipProbe::Fetchable;
                return false;
            }
        }
    }
    return true;
}

Cycle
Simulator::nextWakeCycle() const
{
    Cycle wake = events_.earliest(now_);

    for (ThreadId t = 0; t < cfg_.numThreads; ++t) {
        // A redirected thread resumes fetching at fetchResumeAt — a
        // wake source when the thread would actually have something to
        // fetch and room to put it (both frozen during quiescence). A
        // thread the gating policy would still veto wakes us only into
        // a re-check and re-skip, which conservatism permits.
        const Context &ctx = *contexts_[t];
        const Cycle resume = ctx.fetchResumeAt;
        if (resume > now_ && resume < wake && ctx.fetchEligible(cfg_, resume))
            wake = resume;
    }
    // A waiting head, blocked since the span is quiescent, may be
    // admitted once the next fill lands (waitBlocked).
    if (loads_.set.any() || stores_.set.any())
        wake = std::min(wake, mem_.nextFillCycle());
    return wake;
}

void
Simulator::idleStepStats()
{
    MTDAE_ASSERT(!events_.due(now_),
                 "completion event fired inside a fast-forwarded span");
    fixIssueRankings();
    // Nothing issues, so every slot is free: accountSlots spreads them
    // over the stalled heads' classes and counts the free-slot cycle,
    // exactly as the stepped issue stage would.
    accountSlots(Unit::AP, cfg_.apUnits);
    accountSlots(Unit::EP, cfg_.epUnits);
    finishCycle();
}

bool
Simulator::trySkipIdle(std::uint64_t max_cycles)
{
    if (!cfg_.cycleSkip)
        return false;
    if (now_ < lastGraduation_ + 2) {
        noteProbe(SkipProbe::NotDue);
        return false;
    }
#if MTDAE_PROFILE
    std::chrono::steady_clock::time_point t0;
    if (profileEnabled_)
        t0 = std::chrono::steady_clock::now();
#endif
    SkipProbe blocker = SkipProbe::Skipped;
    if (!quiescent(blocker)) {
        noteProbe(blocker);
        return false;
    }

    // Jump to the earliest cycle anything can happen, clamped to the
    // run-loop horizon and to the deadlock guard's firing point so a
    // wedged pipeline panics at the identical cycle either way.
    Cycle target = nextWakeCycle();
    if (max_cycles < target)
        target = max_cycles;
    const Cycle guard_at = lastGraduation_ + 1'000'001;
    if (guard_at < target)
        target = guard_at;
    if (target < now_ + 2) {
        noteProbe(SkipProbe::ShortSpan);  // a one-cycle jump is a step
        return false;
    }

    MTDAE_ASSERT(events_.earliest(now_) >= target,
                 "fast-forward past a pending completion event");

    const std::uint64_t total = target - now_;
    std::uint64_t n = total;

    // Phase A: an issue policy reading the windows (split orders the
    // EP by the windowed IQ occupancy) sees them evolve for up to
    // kIqWindow cycles after the last dispatch; microstep until they
    // saturate and the visit orders become purely rotation-periodic.
    if (issuePolicy_.readsWindows()) {
        std::uint64_t head =
            n < Context::kIqWindow ? n : Context::kIqWindow;
        for (; head > 0; --head, --n)
            idleStepStats();
    }

    // Phase B: with the machine state frozen, every per-cycle policy
    // consultation repeats with the rotation period (numThreads), so
    // microstep one period to measure its statistics delta, then apply
    // k more periods arithmetically.
    const std::uint64_t period = cfg_.numThreads;
    if (n >= 2 * period) {
        const std::array<std::uint64_t, kNumSlotUses> ap0 =
            slotsAp_.counts;
        const std::array<std::uint64_t, kNumSlotUses> ep0 =
            slotsEp_.counts;
        for (std::uint64_t i = 0; i < period; ++i)
            idleStepStats();
        n -= period;
        const std::uint64_t k = n / period;
        if (k > 0) {
            const std::uint64_t bulk = k * period;
            for (std::size_t u = 0; u < kNumSlotUses; ++u) {
                slotsAp_.counts[u] += (slotsAp_.counts[u] - ap0[u]) * k;
                slotsEp_.counts[u] += (slotsEp_.counts[u] - ep0[u]) * k;
            }
            // Perceived-latency stalls: the microstepped period left
            // every stall class clean, and the classes hold through the
            // span, so each bulk cycle is one more free-slot cycle on
            // both units. The windows sync lazily.
            MTDAE_ASSERT(dirtyHeads_[0].empty() && dirtyHeads_[1].empty(),
                         "stall class invalidated inside an idle span");
            for (std::uint64_t &cycles : freeSlotCycles_)
                cycles += bulk;
            fetchPolicy_.skipCycles(bulk);
            issuePolicy_.skipCycles(bulk);
            now_ += bulk;
            n -= bulk;
            if (windowsRead_)
                syncAllWindows();
        }
    }

    // Phase C: remainder, so the rotations land exactly where stepping
    // would have left them at the wake cycle.
    for (; n > 0; --n)
        idleStepStats();

    // Stepping calls mem_.beginCycle at the start of every cycle; the
    // last call a stepped run would have made is at target - 1.
    // Fill recycling is idempotent and per-MSHR independent, so one
    // catch-up call leaves the hierarchy byte-identical.
    mem_.beginCycle(now_ - 1);

    cyclesSkipped_ += total;
    skipEvents_ += 1;
    noteProbe(SkipProbe::Skipped);
#if MTDAE_PROFILE
    if (profileEnabled_) {
        const std::uint64_t d = std::uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        profile_.ns[std::size_t(Stage::Skipped)] += d;
        profile_.totalNs += d;
        profile_.cycles += total;
    }
#endif
    return true;
}

// ---------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------

template <bool Profiled>
void
Simulator::stepImpl()
{
    // Profiled accounting: consecutive steady_clock marks tile the
    // whole step, so the stage buckets sum to totalNs exactly. Fixing
    // the policy rankings is marked apart from the stages that walk
    // them and credited to Stage::Snapshot.
    std::chrono::steady_clock::time_point prev;
    if constexpr (Profiled)
        prev = std::chrono::steady_clock::now();
    const auto mark = [&](Stage s) {
        if constexpr (Profiled) {
            const auto t = std::chrono::steady_clock::now();
            const std::uint64_t d = std::uint64_t(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t - prev)
                    .count());
            profile_.ns[std::size_t(s)] += d;
            profile_.totalNs += d;
            prev = t;
        } else {
            (void)s;
        }
    };

    mem_.beginCycle(now_);
    processCompletions();
    mark(Stage::Complete);
    fixIssueRankings();
    mark(Stage::Snapshot);
    issueStage();
    mark(Stage::Issue);
    dispatchRank_.fix(issuePolicy_.dispatchRanking(keys_), keys_,
                      dispatchSet_);
    mark(Stage::Snapshot);
    dispatchStage();
    mark(Stage::Dispatch);
    flushStage();
    mark(Stage::Fetch);
    fetchRank_.fix(fetchPolicy_.fetchRanking(keys_), keys_, fetchSet_);
    mark(Stage::Snapshot);
    fetchStage();
    mark(Stage::Fetch);
    graduateStage();
    mark(Stage::Graduate);
    finishCycle();
    mark(Stage::Other);
    if constexpr (Profiled)
        profile_.cycles += 1;
}

void
Simulator::step()
{
#if MTDAE_PROFILE
    if (profileEnabled_) {
        stepImpl<true>();
        return;
    }
#endif
    stepImpl<false>();
}

bool
Simulator::setProfiling(bool on)
{
    if (on && !kProfileBuilt)
        return false;  // -DMTDAE_PROFILE=OFF: instrumentation absent
    profileEnabled_ = on;
    profile_.enabled = on;
    return true;
}

bool
Simulator::allDone() const
{
    for (const auto &ctxp : contexts_) {
        const Context &ctx = *ctxp;
        if (!ctx.traceDone || ctx.hasPending || !ctx.replayQ.empty() ||
            !ctx.fetchBuf.empty() || !ctx.rob.empty())
            return false;
    }
    return true;
}

void
Simulator::resetStats()
{
    measureStart_ = now_;
    instsBase_ = totalGraduated_;
    slotsAp_.reset();
    slotsEp_.reset();
    mispredicts_ = 0;
    condBranches_ = 0;
    forwardedLoads_ = 0;
    cyclesSkipped_ = 0;
    skipEvents_ = 0;
    mem_.resetStats(now_);
    for (auto &ctxp : contexts_) {
        ctxp->graduatedBase = ctxp->graduated;
        ctxp->perceived.resetStats();
        ctxp->predictor->resetStats();
    }
    profile_.reset();
    lastGraduation_ = now_;
}

void
computeQosMetrics(const std::vector<std::uint64_t> &insts,
                  const std::vector<std::uint32_t> &weights,
                  std::uint64_t cycles, RunResult &r)
{
    MTDAE_ASSERT(insts.size() == weights.size(),
                 "per-thread inst and weight vectors must match");
    const std::size_t n = insts.size();
    r.threadInsts = insts;
    r.threadSlowdown.assign(n, 0.0);
    r.weightedSpeedup = 0.0;
    r.fairnessHmean = 0.0;
    r.fairnessMaxMin = 0.0;

    std::uint64_t total = 0;
    std::uint64_t sum_w = 0;
    for (std::size_t i = 0; i < n; ++i) {
        total += insts[i];
        sum_w += weights[i];
    }
    if (n == 0 || total == 0)
        return;

    if (cycles) {
        double ws = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            ws += double(weights[i]) * double(insts[i]) / double(cycles);
        r.weightedSpeedup = ws / double(sum_w);
    }

    // Normalized progress x_i = (insts_i / total) / (w_i / sum_w):
    // 1.0 when the thread made exactly its weighted fair share of the
    // interval's progress. slowdown_i is its reciprocal.
    bool starved = false;
    bool first = true;
    double inv_sum = 0.0;
    double x_min = 0.0;
    double x_max = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double share = double(weights[i]) / double(sum_w);
        if (insts[i] == 0) {
            starved = true;
            continue;
        }
        const double x =
            (double(insts[i]) / double(total)) / share;
        inv_sum += 1.0 / x;
        if (first || x < x_min)
            x_min = x;
        if (first || x > x_max)
            x_max = x;
        first = false;
        r.threadSlowdown[i] = share * double(total) / double(insts[i]);
    }
    if (!starved && inv_sum > 0.0)
        r.fairnessHmean = double(n) / inv_sum;
    if (starved)
        x_min = 0.0;
    r.fairnessMaxMin = x_max > 0.0 ? x_min / x_max : 0.0;
}

RunResult
Simulator::snapshot() const
{
    RunResult r;
    r.cycles = now_ - measureStart_;
    r.insts = totalGraduated_ - instsBase_;
    r.ipc = r.cycles ? double(r.insts) / double(r.cycles) : 0.0;

    std::uint64_t fp_stalls = 0, int_stalls = 0;
    for (const auto &ctxp : contexts_) {
        const PerceivedTracker &p = ctxp->perceived;
        fp_stalls += p.fpStalls();
        int_stalls += p.intStalls();
        r.fpMisses += p.fpMisses();
        r.intMisses += p.intMisses();
    }
    r.perceivedFp = r.fpMisses ? double(fp_stalls) / r.fpMisses : 0.0;
    r.perceivedInt = r.intMisses ? double(int_stalls) / r.intMisses : 0.0;
    const std::uint64_t misses = r.fpMisses + r.intMisses;
    r.perceivedAll =
        misses ? double(fp_stalls + int_stalls) / misses : 0.0;

    const MemStats &ms = mem_.stats();
    r.loadMissRatio = ms.loadMiss.value();
    r.storeMissRatio = ms.storeMiss.value();
    r.missRatio = ms.missRatio();
    const std::uint64_t accesses = ms.loadMiss.den + ms.storeMiss.den;
    r.mergedRatio =
        accesses ? double(ms.mergedMisses) / accesses : 0.0;
    r.busUtilization = mem_.busUtilization(now_);
    r.avgFillLatency = ms.avgFillLatency();
    r.l2MissRatio = mem_.l2Stats().miss.value();
    r.dramRowHitRatio = mem_.dramStats().rowHit.value();
    r.dramBusUtilization = mem_.dramBusUtilization(now_);

    r.ap = slotsAp_;
    r.ep = slotsEp_;
    r.mispredictRate =
        condBranches_ ? double(mispredicts_) / condBranches_ : 0.0;
    r.cyclesSkipped = cyclesSkipped_;
    r.skipEvents = skipEvents_;
    r.profile = profile_;

    std::vector<std::uint64_t> thread_insts;
    std::vector<std::uint32_t> thread_weights;
    thread_insts.reserve(contexts_.size());
    thread_weights.reserve(contexts_.size());
    for (const auto &ctxp : contexts_) {
        thread_insts.push_back(ctxp->graduated - ctxp->graduatedBase);
        thread_weights.push_back(cfg_.threadWeight(ctxp->tid));
    }
    computeQosMetrics(thread_insts, thread_weights, r.cycles, r);
    return r;
}

namespace {

/** Deadlock guard shared by the run loops. */
void
guardProgress(Cycle now, Cycle last_graduation)
{
    if (now - last_graduation > 1000000)
        MTDAE_PANIC("no graduation for 1M cycles at cycle ", now,
                    " — pipeline deadlock");
}

} // namespace

void
Simulator::runWarmup(std::uint64_t max_cycles)
{
    while (totalGraduated_ < cfg_.warmupInsts && now_ < max_cycles &&
           !allDone()) {
        if (!trySkipIdle(max_cycles))
            step();
        guardProgress(now_, lastGraduation_);
    }
}

RunResult
Simulator::runMeasure(std::uint64_t measure_insts, std::uint64_t max_cycles)
{
    resetStats();
    const std::uint64_t target = totalGraduated_ + measure_insts;
    while (totalGraduated_ < target && now_ < max_cycles && !allDone()) {
        if (!trySkipIdle(max_cycles))
            step();
        guardProgress(now_, lastGraduation_);
    }
    return snapshot();
}

RunResult
Simulator::run(std::uint64_t measure_insts, std::uint64_t max_cycles)
{
    runWarmup(max_cycles);
    return runMeasure(measure_insts, max_cycles);
}

} // namespace mtdae
