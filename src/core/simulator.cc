#include "core/simulator.hh"

#include <algorithm>
#include <chrono>

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
      derived_(cfg_),
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
    derived_.rebuild(contexts_, now_);
    // The longest a legal machine can go without graduating, with room
    // to spare: a ROB head may wait out a frame's fill, then an MSHR,
    // then its own access, and each access may queue behind every other
    // outstanding miss, its victim write-backs and their DRAM row
    // conflicts. At least the fixed 1M cycles of a default machine.
    const Cycle dram = Cycle(cfg_.dramPrecharge) + cfg_.dramRas +
                       cfg_.dramCas + cfg_.dramBusCycles;
    progressHorizon_ = std::max<Cycle>(
        1'000'000,
        4 * (cfg_.mshrs * (3 * dram + 2 * cfg_.lineTransferCycles()) +
             cfg_.l2Latency + cfg_.apLatency + cfg_.epLatency +
             cfg_.l1HitLatency + cfg_.redirectPenalty));
}

void
Simulator::syncAllWindows()
{
    for (auto &ctxp : contexts_)
        derived_.syncWindows(*ctxp, now_);
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
        if (di->ti.dst.valid())
            ctx.file(di->ti.dst.cls).setReady(di->physDst);

        if (di->isCondBr()) {
            MTDAE_ASSERT(ctx.unresolvedBranches > 0,
                         "branch resolution underflow");
            ctx.unresolvedBranches -= 1;
            if (di->mispredicted && ctx.fetchBlocked &&
                ctx.blockingBranchSeq == di->seq) {
                ctx.fetchBlocked = false;
                ctx.fetchResumeAt = now_ + cfg_.redirectPenalty;
            }
        }
        // A missed load's miss closes here.
        derived_.completed(ctx, *di, now_);
    });
}

// ---------------------------------------------------------------------
// Issue
// ---------------------------------------------------------------------

bool
Simulator::tryIssue(Context &ctx, DynInst &di)
{
    if (!ctx.issueReady(di, cfg_))
        return false;

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
                    derived_.refused(Loads, ctx.tid, di.ti.addr, r.reject,
                                     mem_);
                return false;
            }
            if (r.miss() && !r.merged)
                derived_.lineAllocated(mem_.lineOf(di.ti.addr));
            ready_at = r.readyAt;
            if (r.miss()) {
                derived_.syncWindows(ctx, now_);
                di.loadMissed = true;
                di.missToken =
                    ctx.perceived.open(di.ti.op == Opcode::LdI);
                ctx.file(di.ti.dst.cls).producer(di.physDst).missToken =
                    di.missToken;
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
    const RankedWalk &rank = issueRank_[std::size_t(unit)];
    std::uint32_t issued = 0;
    // A head whose clean class proves it blocked, or a waiting load, is
    // not in the set: it waits for its event without a Context access.
    // With an MSHR free the AP walk visits the waiting loads too.
    const ThreadSet *admitted =
        unit == Unit::AP ? derived_.admits(Loads, mem_) : nullptr;
    const ThreadSet &set = admitted ? *admitted : derived_.issueSet(unit);
    const auto live = [&](std::size_t w) { return set.word(w); };
    RankedWalk::Cursor c = rank.begin(live);
    for (ThreadId t; slots > 0 && (t = rank.next(c, live)) != kNoThread;) {
        if (admitted && !derived_.mayAttempt(Loads, t, mem_, now_))
            continue;
        Context &ctx = *contexts_[t];
        auto &queue = unit == Unit::AP ? ctx.apQ : ctx.iq;
        const std::uint32_t was_issued = issued;
        bool missed = false;
        while (slots > 0 && !queue.empty()) {
            DynInst *di = queue.front();
            if (!tryIssue(ctx, *di))
                break;
            if (unit == Unit::EP)
                derived_.syncWindows(ctx, now_);
            missed |= di->loadMissed;
            queue.pop_front();
            slots -= 1;
            issued += 1;
        }
        if (issued != was_issued)
            derived_.issued(ctx, unit, missed);
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
    derived_.classify(unit, contexts_);
    issueRank_[std::size_t(unit)].forFirst(free_slots, [&](ThreadId t) {
        bd.add(derived_.headUse(unit, t));
    });
    // A free slot existed, so every head stalled on an outstanding
    // load miss perceives one more cycle of it; the class collects
    // them when it is invalidated.
    derived_.slotFree(unit);
}

void
Simulator::fixIssueRankings()
{
    for (const Unit unit : {Unit::AP, Unit::EP})
        issueRank_[std::size_t(unit)].fix(
            issuePolicy_.issueRanking(unit, derived_.keys()),
            derived_.keys(), derived_.all());
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
    if (!derived_.canDispatch(ctx))
        return false;
    const FetchedInst &fi = ctx.fetchBuf.front();
    const TraceInst &ti = fi.ti;
    const Unit unit = ti.unit();
    const bool is_store = isStore(ti.op);

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
        if (unit == Unit::AP) {
            ctx.apQ.push_back(&di);
        } else {
            derived_.syncWindows(ctx, now_);
            ctx.iq.push_back(&di);
        }
        if (is_store) {
            // Ring elements never move, so the store can keep a direct
            // pointer to its entry for the address deposit at issue (no
            // SAQ walk).
            ctx.saq.push_back(SaqEntry{&di, di.seq, false, 0});
            di.saqEntry = &ctx.saq.back();
        }
    }

    ctx.fetchBuf.pop_front();
    return true;
}

void
Simulator::dispatchStage()
{
    std::uint32_t budget = cfg_.dispatchWidth;
    // tryDispatch refuses a full ROB first, whatever the buffer holds,
    // so such a thread is not in the set, nor is one still waiting for
    // the event that can unblock it.
    const ThreadSet &set = derived_.dispatchSet();
    const auto live = [&](std::size_t w) { return set.word(w); };
    RankedWalk::Cursor c = dispatchRank_.begin(live);
    for (ThreadId t;
         budget > 0 && (t = dispatchRank_.next(c, live)) != kNoThread;) {
        Context &ctx = *contexts_[t];
        bool waits = false;
        while (budget > 0 && !ctx.fetchBuf.empty()) {
            if (!tryDispatch(ctx)) {
                waits = true;
                break;
            }
            budget -= 1;
        }
        derived_.dispatched(ctx, waits);
    }
}

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

const TraceInst *
Simulator::nextInst(Context &ctx)
{
    // Flushed instructions are older than the trace lookahead (they
    // were fetched before it), so the replay queue drains first.
    if (!ctx.replayQ.empty())
        return &ctx.replayQ.front();
    if (!ctx.hasPending) {
        if (ctx.traceDone || !ctx.source->next(ctx.pendingInst)) {
            ctx.traceDone = true;
            return nullptr;
        }
        ctx.hasPending = true;
    }
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
    // Replayed instructions get fresh sequence numbers; nothing
    // younger than the squashed block was ever fetched.
    ctx.nextSeq = first;
    derived_.fetched(ctx);
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
    derived_.fetched(ctx);
}

void
Simulator::flushStage()
{
    // Gating pass, before the fetch ranking: a flush-style policy
    // squashes the pressured threads' not-yet-dispatched buffers,
    // handing their dispatch slots to the other threads.
    if (!fetchPolicy_.flushes())
        return;
    for (const ThreadState &key : derived_.keys())
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
    const ThreadSet &set = derived_.fetchSet();
    const auto live = [&](std::size_t w) { return set.word(w); };
    RankedWalk::Cursor c = fetchRank_.begin(live);
    for (ThreadId t;
         ports > 0 && (t = fetchRank_.next(c, live)) != kNoThread;) {
        Context &ctx = *contexts_[t];
        if (!ctx.fetchEligible(cfg_, now_) ||
            !fetchPolicy_.mayFetch(derived_.keys()[t]))
            continue;
        fetchThread(ctx);
        ports -= 1;
    }
}

// ---------------------------------------------------------------------
// Graduation
// ---------------------------------------------------------------------

void
Simulator::graduateStage()
{
    // With an MSHR free the walk visits the waiting stores too; a store
    // whose line a load allocated this cycle is back in the set.
    const ThreadSet *admitted = derived_.admits(Stores, mem_);
    const ThreadSet &set = admitted ? *admitted : derived_.graduateSet();
    const auto live = [&](std::size_t w) { return set.word(w); };
    ThreadSet::Cursor c(cfg_.numThreads, 0, live);
    for (ThreadId t; (t = c.next(live)) != kNoThread;) {
        if (admitted && !derived_.mayAttempt(Stores, t, mem_, now_))
            continue;
        Context &ctx = *contexts_[t];
        std::uint32_t width = cfg_.graduateWidth;
        bool waits = false;
        while (width > 0 && !ctx.rob.empty()) {
            DynInst &di = ctx.rob.front();
            // The store leaves the SAQ and writes the cache when its
            // data is available (FP store data comes from the EP).
            if (!ctx.graduable(di)) {
                waits = true;  // for a completion
                break;
            }
            if (di.isStoreOp) {
                const MemResult r = mem_.store(di.ti.addr, now_);
                if (!r.accepted) {
                    // No free MSHR, or its frame filling another line:
                    // the store waits for the event that can admit it.
                    // Port pressure: next cycle.
                    if (r.reject != MemReject::NoPort)
                        derived_.refused(Stores, t, di.ti.addr, r.reject,
                                         mem_);
                    break;
                }
                if (r.miss() && !r.merged)
                    derived_.lineAllocated(mem_.lineOf(di.ti.addr));
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
        derived_.graduated(ctx, width < cfg_.graduateWidth, waits);
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
        if (!ctx.rob.empty() && !derived_.blocked(Stores, t, mem_, now_) &&
            ctx.graduable(ctx.rob.front())) {
            blocker = SkipProbe::Graduable;
            return false;
        }

        // Issue: a unit-queue head passing its gates would issue, or at
        // least attempt an access (a load denied a port retries next
        // cycle; a blocked waiting one does not). Only the
        // heads matter: issueUnit stops a thread's unit at the first
        // non-issuable instruction, and with both heads stuck neither
        // two-pass round can unblock the other unit.
        if ((!ctx.apQ.empty() && !derived_.blocked(Loads, t, mem_, now_) &&
             ctx.issueReady(*ctx.apQ.front(), cfg_)) ||
            (!ctx.iq.empty() && ctx.issueReady(*ctx.iq.front(), cfg_))) {
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
    for (const ThreadState &key : derived_.keys()) {
        Context &ctx = *contexts_[key.tid];
        if (key.fetchBufOccupancy > 0 &&
            (fetchPolicy_.shouldFlush(key) || derived_.canDispatch(ctx))) {
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
    // admitted once the next fill lands.
    if (derived_.anyWaiting())
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
    std::chrono::steady_clock::time_point t0;
    if (profileEnabled_)
        t0 = std::chrono::steady_clock::now();
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
    const Cycle guard_at = lastGraduation_ + progressHorizon_ + 1;
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
            derived_.idleSpan(bulk);
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
    if (profileEnabled_) {
        const std::uint64_t d = std::uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        profile_.ns[std::size_t(Stage::Skipped)] += d;
        profile_.totalNs += d;
        profile_.cycles += total;
    }
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
    dispatchRank_.fix(issuePolicy_.dispatchRanking(derived_.keys()),
                      derived_.keys(), derived_.dispatchSet());
    mark(Stage::Snapshot);
    dispatchStage();
    mark(Stage::Dispatch);
    flushStage();
    mark(Stage::Fetch);
    fetchRank_.fix(fetchPolicy_.fetchRanking(derived_.keys()),
                   derived_.keys(), derived_.fetchSet());
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
    if (profileEnabled_)
        stepImpl<true>();
    else
        stepImpl<false>();
}

void
Simulator::setProfiling(bool on)
{
    profileEnabled_ = on;
    profile_.enabled = on;
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
guardProgress(Cycle now, Cycle last_graduation, Cycle horizon)
{
    if (now - last_graduation > horizon)
        MTDAE_PANIC("no graduation for ", horizon, " cycles at cycle ", now,
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
        guardProgress(now_, lastGraduation_, progressHorizon_);
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
        guardProgress(now_, lastGraduation_, progressHorizon_);
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
