#include "core/derived_state.hh"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace mtdae {

void
DerivedState::rebuild(Contexts &contexts, Cycle now)
{
    const std::uint32_t n = cfg_.numThreads;
    keys_.clear();
    for (auto &ctxp : contexts) {
        ctxp->windowsAt = now;
        keys_.push_back(ctxp->policyState(cfg_, now));
    }
    for (const Waiting w : {Loads, Stores}) {
        waiter_[w].assign(n, Waiter{});
        waiting_[w] = ThreadSet(n);
    }
    waitingLines_.assign(kLineBuckets, 0);
    for (std::size_t u = 0; u < heads_.size(); ++u) {
        heads_[u].assign(n, HeadClass{});
        dirty_[u].resize(n);
        std::iota(dirty_[u].begin(), dirty_[u].end(), 0u);
        freeSlots_[u] = 0;
        issueSet_[u] = ThreadSet(n);
    }
    for (ThreadSet *s :
         {&dispatchSet_, &fetchSet_, &graduateSet_, &all_, &admitted_})
        *s = ThreadSet(n);
    for (ThreadId t = 0; t < n; ++t) {
        for (const Unit unit : {Unit::AP, Unit::EP})
            issueSet_[int(unit)].assign(t, issuable(unit, t));
        dispatchSet_.assign(t, dispatchable(t));
        fetchSet_.assign(t, fetchable(t));
        graduateSet_.assign(t, keys_[t].robOccupancy > 0);
    }
    all_.fill();
}

void
DerivedState::chargeStalls(Context &ctx, Unit unit)
{
    HeadClass &h = heads_[int(unit)][ctx.tid];
    const std::uint64_t owed = freeSlots_[int(unit)] - h.chargedTo;
    if (h.cls.token != PerceivedTracker::kNoToken && owed > 0)
        ctx.perceived.stall(h.cls.token, owed);
    h.chargedTo = freeSlots_[int(unit)];
}

void
DerivedState::chargeAllStalls(Contexts &contexts)
{
    for (const Unit unit : {Unit::AP, Unit::EP})
        for (auto &ctxp : contexts)
            if (!heads_[int(unit)][ctxp->tid].dirty)
                chargeStalls(*ctxp, unit);
}

bool
DerivedState::blocks(const StallClass &cls, const Context &ctx,
                     Unit unit) const
{
    const auto &queue = queueOf(ctx, unit);
    return cls.reason == SlotUse::WaitMem || cls.reason == SlotUse::WaitFu ||
           (!cfg_.decoupled && !queue.empty() &&
            queue.front()->seq != ctx.nextIssueSeq);
}

void
DerivedState::classify(Unit unit, const Contexts &contexts)
{
    const int u = int(unit);
    for (const ThreadId t : dirty_[u]) {
        HeadClass &h = heads_[u][t];
        const Context &ctx = *contexts[t];
        const auto &queue = queueOf(ctx, unit);
        h.srcs = queue.empty() ? HeadClass{}.srcs : queue.front()->physSrc;
        h.cls = ctx.stallClass(unit, cfg_);
        if (blocks(h.cls, ctx, unit))
            issueSet_[u].erase(t);  // blocked while the class holds
        h.chargedTo = freeSlots_[u];
        h.dirty = false;
    }
    dirty_[u].clear();
}

void
DerivedState::refused(Waiting w, ThreadId t, Addr addr, MemReject why,
                      const MemorySystem &mem)
{
    assert(!waiting_[w].contains(t) && "a waiting head is not attempted");
    const std::uint64_t line = mem.lineOf(addr);
    waiter_[w][t] = Waiter{
        addr, line,
        why == MemReject::Conflict ? mem.frameFillCycle(line) : 0};
    waiting_[w].insert(t);
    stageOf(w).erase(t);
    waitingLines_[line % kLineBuckets] += 1;
}

void
DerivedState::unwait(Waiting w, ThreadId t)
{
    // A waiting head is queued (a ROB head) and passed its gates (no
    // blocked class), so back in the set it waits for nothing.
    const std::uint64_t line = waiter_[w][t].line;
    assert(waitingLines_[line % kLineBuckets] > 0);
    waiting_[w].erase(t);
    stageOf(w).insert(t);
    waitingLines_[line % kLineBuckets] -= 1;
}

void
DerivedState::lineAllocated(std::uint64_t line)
{
    if (waitingLines_[line % kLineBuckets] == 0)
        return;
    // A walk in progress, as any access could allocate a line, walks
    // the union of its stage set and the waiters (admits()), so moving a
    // woken head from one to the other changes nothing it visits.
    for (const Waiting w : {Loads, Stores}) {
        const ThreadSet &set = waiting_[w];
        const auto members = [&](std::size_t i) { return set.word(i); };
        ThreadSet::Cursor c(cfg_.numThreads, 0, members);
        for (ThreadId t; (t = c.next(members)) != kNoThread;)
            if (waiter_[w][t].line == line)
                unwait(w, t);
    }
}

std::string
DerivedState::check(const Contexts &contexts, const MemorySystem &mem,
                    Cycle now) const
{
    const std::uint32_t n = cfg_.numThreads;
    // "cycle C, thread T: rule", or "cycle C: rule" of no one thread.
    const auto fail = [now](ThreadId t, const char *rule) {
        std::string s = "cycle " + std::to_string(now);
        if (t != kNoThread)
            s += ", thread " + std::to_string(t);
        return s + ": " + rule;
    };
    if (keys_.size() != n || contexts.size() != n)
        return fail(kNoThread, "one key per context");
    std::array<std::size_t, 2> dirty_heads{};
    const auto sum = [](const auto &ring) {
        return std::accumulate(ring.begin(), ring.end(), 0u);
    };
    // The waiters' line buckets, at most two a thread: on the stack, as
    // the property tests call check() every cycle.
    std::array<std::uint32_t, kLineBuckets> lines{};

    for (ThreadId t = 0; t < n; ++t) {
        const Context &ctx = *contexts[t];
        if (ctx.windowsAt > now || ctx.iqWindowSum != sum(ctx.iqSamples) ||
            ctx.missWindowSum != sum(ctx.missSamples) ||
            ctx.missRun != ctx.trailingMissRun())
            return fail(t, "window sums or miss run differ from the rings");
        // Each indexed word counts its deposits (and the walk below
        // finds every deposited word indexed).
        for (const auto &[word, count] : ctx.saqWords) {
            std::uint32_t deposits = 0;
            for (const SaqEntry &e : ctx.saq)
                deposits += e.addrValid && e.addr >> 3 == word;
            if (count == 0 || count != deposits)
                return fail(t, "SAQ word index differs from the SAQ");
        }
        // A probe seq newer than every store makes the walk answer what
        // the index does; a deposited word and one far from it.
        for (const SaqEntry &e : ctx.saq)
            for (const Addr a : {e.addr, e.addr + (Addr(64) << 20)})
                if (e.addrValid && ctx.saqForwardsFast(a) !=
                                       ctx.saqForwards(ctx.nextSeq + 1, a))
                    return fail(t, "SAQ word lookup differs from its walk");
        if (!(keys_[t] == ctx.policyState(cfg_, ctx.windowsAt)))
            return fail(t, "live keys differ from Context::policyState");

        // A waiting head passed every gate but the L1, which holds
        // neither its line (an access allocating it would have woken the
        // head) nor, before `until`, its frame free.
        const DynInst *ap_head = ctx.apQ.empty() ? nullptr : ctx.apQ.front();
        const DynInst *rob_head = ctx.rob.empty() ? nullptr : &ctx.rob.front();
        const bool load_waits = waiting_[Loads].contains(t);
        const bool store_waits = waiting_[Stores].contains(t);
        if (load_waits &&
            !(ap_head && ap_head->isLoadOp && ctx.issueReady(*ap_head, cfg_) &&
              !ctx.saqForwards(ap_head->seq, ap_head->ti.addr) &&
              ap_head->ti.addr == waiter_[Loads][t].addr))
            return fail(t, "a waiting load is not an issuable AP head load");
        if (store_waits &&
            !(rob_head && rob_head->isStoreOp && ctx.graduable(*rob_head) &&
              rob_head->ti.addr == waiter_[Stores][t].addr))
            return fail(t, "a waiting store is not a graduable ROB head");
        for (const Waiting w : {Loads, Stores}) {
            const Waiter &h = waiter_[w][t];
            if (!waiting_[w].contains(t))
                continue;
            // A fill due now lands when the cycle begins.
            if (h.line != mem.lineOf(h.addr) || mem.holds(h.line) ||
                (h.until >= now && mem.frameFillCycle(h.line) != h.until))
                return fail(t, "a waiter's line is held or its fill moved");
            lines[h.line % kLineBuckets] += 1;
        }

        for (const Unit unit : {Unit::AP, Unit::EP}) {
            const int u = int(unit);
            const HeadClass &h = heads_[u][t];
            const auto &queue = queueOf(ctx, unit);
            if (std::count(dirty_[u].begin(), dirty_[u].end(), t) != h.dirty)
                return fail(t, "a dirty list differs from the dirty classes");
            dirty_heads[u] += h.dirty;
            if (!h.dirty &&
                (!(h.cls == ctx.stallClass(unit, cfg_)) ||
                 h.srcs != (queue.empty() ? HeadClass{}.srcs
                                          : queue.front()->physSrc) ||
                 h.chargedTo > freeSlots_[u]))
                return fail(t, "a clean stall class is not its head's");
            const bool blocked = !h.dirty && blocks(h.cls, ctx, unit);
            if (blocked &&
                (queue.empty() || ctx.issueReady(*queue.front(), cfg_)))
                return fail(t, "a blocked head is gone or passes its gates");
            if (issueSet_[u].contains(t) !=
                (!queue.empty() && !blocked && !(u == 0 && load_waits)))
                return fail(t, "an issue set differs from its rule");
        }
        if (fetchSet_.contains(t) !=
            (ctx.fetchBuf.size() < cfg_.fetchBufferSize))
            return fail(t, "fetch set differs from its rule");
        // A missing member with work is a wait mark the head justifies.
        const bool room =
            !ctx.fetchBuf.empty() && ctx.rob.size() < cfg_.robEntries;
        if (dispatchSet_.contains(t) ? !room : room && canDispatch(ctx))
            return fail(t, "dispatch set differs from its rule");
        const bool head = rob_head && !store_waits;
        if (graduateSet_.contains(t) ? !head
                                     : head && ctx.graduable(*rob_head))
            return fail(t, "graduation set differs from its rule");
        if (!all_.contains(t))
            return fail(t, "a thread is missing from every thread");
    }
    if (dirty_heads != std::array{dirty_[0].size(), dirty_[1].size()})
        return fail(kNoThread, "a dirty list names no thread");
    if (!std::equal(lines.begin(), lines.end(), waitingLines_.begin(),
                    waitingLines_.end()))
        return fail(kNoThread, "waiting-line buckets differ from the waiters");
    return "";
}

} // namespace mtdae
