/**
 * @file
 * DerivedState: what the Simulator keeps beside the simulated state so
 * that a cycle touches a Context only where something can happen — the
 * policy keys, the stage sets, the heads waiting for the L1 and the
 * cached stall classes. The stages report the events that can change
 * it, and only its event methods write it. None of it is serialized:
 * rebuild() derives it from the Contexts, and check() re-derives every
 * rule from the Contexts and the L1 (Simulator::checkInvariants).
 */

#ifndef MTDAE_CORE_DERIVED_STATE_HH
#define MTDAE_CORE_DERIVED_STATE_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/thread_set.hh"
#include "common/types.hh"
#include "core/context.hh"
#include "memory/memory_system.hh"
#include "policy/policy.hh"

namespace mtdae {

class DerivedState
{
  public:
    /** The Simulator's contexts, indexed by tid. */
    using Contexts = std::vector<std::unique_ptr<Context>>;

    /**
     * The heads that wait for the L1: AP-queue head loads (issue) and
     * ROB-head stores (graduation). A head refused for want of an MSHR
     * or by its frame filling another line waits out of its stage set
     * until its frame's fill (a Conflict refusal), a walk of its stage
     * that starts with an MSHR free (admits(), mayAttempt()), or an
     * allocation of its line by another access, after which it would
     * merge (lineAllocated()). Every attempt this skips would be
     * refused without side effect: an MSHR frees only as a fill lands,
     * a line becomes resident or filling only by an access allocating
     * it, a pending fill is never cancelled, and a waiting head neither
     * moves nor fails a gate it passed.
     */
    enum Waiting : std::uint8_t { Loads, Stores };

    /** For @p cfg's machine; empty until rebuild(). */
    explicit DerivedState(const SimConfig &cfg) : cfg_(cfg) {}

    /** Derive everything from @p contexts at cycle @p now, with the
     *  windows synced to @p now, no waiting head (a head that waited is
     *  attempted once and waits again), every stall class dirty and no
     *  wait mark. */
    void rebuild(Contexts &contexts, Cycle now);

    /**
     * Re-derive, between cycles, every rule from @p contexts and @p mem
     * at @p now: the stage sets (a missing dispatch or graduation member
     * with work must be a wait mark its head justifies), waiters,
     * buckets, keys, clean classes, dirty lists, and the contexts' own
     * window sums, miss run and SAQ word index. A blocked class's head
     * must fail Context::issueReady, and saqForwardsFast must answer as
     * the saqForwards walk.
     *
     * @return "" or the first disagreement: its rule, thread and cycle
     */
    std::string check(const Contexts &contexts, const MemorySystem &mem,
                      Cycle now) const;

    /** The policy keys, indexed by tid: Context::policyState(), the
     *  windows as of their last sync (Context::windowsAt). */
    const std::vector<ThreadState> &keys() const { return keys_; }

    /**
     * The stage sets: per stage, the threads it would not pass over.
     * - issue, per unit: a queued head whose class is not clean and
     *   blocked (WaitMem, WaitFu or, not decoupled, not next in program
     *   order), and on the AP no waiting load.
     * - dispatch: a buffered head, ROB room, and no wait mark. A head
     *   failing canDispatch sets the mark; a graduation, an issue pop,
     *   a new head or a flush in the thread clears it. Nothing else can
     *   make canDispatch true: only dispatch fills the ROB, queues, SAQ
     *   and register files.
     * - fetch: room in the fetch buffer.
     * - graduation: a ROB head, no wait mark and no waiting store. A head
     *   that is incomplete, or a store without its data, sets the mark
     *   until a completion in the thread.
     */
    const ThreadSet &issueSet(Unit u) const { return issueSet_[int(u)]; }
    const ThreadSet &dispatchSet() const { return dispatchSet_; }
    const ThreadSet &fetchSet() const { return fetchSet_; }
    const ThreadSet &graduateSet() const { return graduateSet_; }
    const ThreadSet &all() const { return all_; }  ///< every thread

    /** How thread @p t's classified @p unit head uses a free slot. */
    SlotUse
    headUse(Unit unit, ThreadId t) const
    {
        return heads_[int(unit)][t].cls.reason;
    }

    /** Room for @p ctx's fetch-buffer head, which must exist: ROB, unit
     *  queue, SAQ, rename register (the dispatch checks, side-effect
     *  free). */
    bool
    canDispatch(const Context &ctx) const
    {
        const TraceInst &ti = ctx.fetchBuf.front().ti;
        const Unit unit = ti.unit();
        return ctx.rob.size() < cfg_.robEntries &&
               (ti.op == Opcode::Nop ||
                queueOf(ctx, unit).size() < (unit == Unit::AP
                                                 ? cfg_.apQueueEntries
                                                 : cfg_.iqEntries)) &&
               (!isStore(ti.op) || ctx.saq.size() < cfg_.saqEntries) &&
               (!ti.dst.valid() || ctx.file(ti.dst.cls).hasFree());
    }

    /**
     * The union of @p w's stage set and waiters, which a walk of that
     * stage starting now reads when some head waits and an MSHR is
     * free; otherwise null. A walk moves only the visited thread, or a
     * woken waiter into the stage set, so the union stays what the walk
     * would read live.
     */
    const ThreadSet *
    admits(Waiting w, const MemorySystem &mem)
    {
        if (!mem.mshrFree() || !waiting_[w].any())
            return nullptr;
        admitted_.assignUnion(stageOf(w), waiting_[w]);
        return &admitted_;
    }

    /**
     * May thread @p t's head, reached by an admitting walk, be attempted
     * at @p now? Yes unless it waits in @p w; then not before its
     * frame's fill nor with no MSHR free, and otherwise as the L1's
     * side-effect-free probe says: accepted or a port refusal returns
     * it to its stage set (a port refusal retries next cycle), an MSHR
     * or frame refusal waits again.
     */
    bool
    mayAttempt(Waiting w, ThreadId t, const MemorySystem &mem, Cycle now)
    {
        if (!waiting_[w].contains(t))
            return true;
        // Its line was not allocated since it waits (lineAllocated), so
        // with no MSHR free the L1 refuses it.
        Waiter &h = waiter_[w][t];
        if (now < h.until || !mem.mshrFree())
            return false;
        const MemReject why = mem.refusal(h.addr);
        if (why == MemReject::NoMshr || why == MemReject::Conflict) {
            h.until =
                why == MemReject::Conflict ? mem.frameFillCycle(h.line) : 0;
            return false;
        }
        unwait(w, t);
        return why == MemReject::None;
    }

    /**
     * True while thread @p t's head waits in @p w and the L1 refuses it
     * at every cycle up to the next fill: no fill lands now, and its
     * frame still fills another line or no MSHR is free. The next fill
     * is the wake (Simulator::nextWakeCycle) even when its frame fills
     * later, which keeps the skip statistics the skip goldens pin.
     */
    bool
    blocked(Waiting w, ThreadId t, const MemorySystem &mem, Cycle now) const
    {
        return waiting_[w].contains(t) && mem.nextFillCycle() > now &&
               (waiter_[w][t].until > now || !mem.mshrFree());
    }

    /** True while any load or store waits. */
    bool
    anyWaiting() const
    {
        return waiting_[Loads].any() || waiting_[Stores].any();
    }

    // --- Events -----------------------------------------------------------
    /** Fetch visited @p ctx, or a flush emptied its buffer. A new
     *  buffer head, in a buffer that was empty, or none left, ends any
     *  dispatch wait. */
    void
    fetched(const Context &ctx)
    {
        const ThreadId t = ctx.tid;
        ThreadState &k = keys_[t];
        const bool new_head = k.fetchBufOccupancy == 0 || ctx.fetchBuf.empty();
        k.fetchBufOccupancy = std::uint32_t(ctx.fetchBuf.size());
        k.unresolvedBranches = ctx.unresolvedBranches;
        if (new_head)
            wakeDispatch(t);
        fetchSet_.assign(t, fetchable(t));
    }

    /** Dispatch visited @p ctx, moving instructions from its buffer into
     *  its ROB and queues, or none; @p waits: its head failed
     *  canDispatch. */
    void
    dispatched(Context &ctx, bool waits)
    {
        const ThreadId t = ctx.tid;
        ThreadState &k = keys_[t];
        if (k.fetchBufOccupancy != ctx.fetchBuf.size()) {
            if (k.robOccupancy == 0)
                graduateSet_.insert(t);  // a ROB head, which cannot wait
            for (const Unit unit : {Unit::AP, Unit::EP}) {
                if (queued(unit, t) == 0 && !queueOf(ctx, unit).empty()) {
                    invalidateHead(ctx, unit);  // a new head: not Idle
                    issueSet_[int(unit)].insert(t);
                }
            }
            k.fetchBufOccupancy = std::uint32_t(ctx.fetchBuf.size());
            k.apQueueOccupancy = std::uint32_t(ctx.apQ.size());
            k.iqOccupancy = std::uint32_t(ctx.iq.size());
            k.robOccupancy = std::uint32_t(ctx.rob.size());
        }
        dispatchSet_.assign(t, !waits && dispatchable(t));
        fetchSet_.assign(t, fetchable(t));
    }

    /**
     * Issue popped @p ctx's @p unit queue head, or several; @p missed: a
     * popped load opened a miss. The head moves on; not decoupled, so
     * does the other unit's program-order gate, and a miss hands a token
     * to whichever head reads the load's register. A freed queue entry
     * ends a dispatch wait.
     */
    void
    issued(Context &ctx, Unit unit, bool missed)
    {
        const ThreadId t = ctx.tid;
        invalidateHead(ctx, unit);
        if (!cfg_.decoupled || missed)
            invalidateHead(ctx, unit == Unit::AP ? Unit::EP : Unit::AP);
        ThreadState &k = keys_[t];
        (unit == Unit::AP ? k.apQueueOccupancy : k.iqOccupancy) =
            std::uint32_t(queueOf(ctx, unit).size());
        if (missed)
            ctx.missAndWindowKeys(k);
        if (queueOf(ctx, unit).empty())
            issueSet_[int(unit)].erase(t);
        wakeDispatch(t);
    }

    /**
     * @p ctx's instruction @p di completed at @p now, its register ready
     * and its branch resolved. It ends a graduation wait (it is the ROB
     * head, or a store head's data producer). The heads reading its
     * register change class and collect their owed stalls before a
     * missed load's windows sync and its miss closes.
     */
    void
    completed(Context &ctx, const DynInst &di, Cycle now)
    {
        const ThreadId t = ctx.tid;
        if (!graduateSet_.contains(t) && !waiting_[Stores].contains(t))
            graduateSet_.insert(t);
        if (di.ti.dst.valid()) {
            for (const Unit unit : {Unit::AP, Unit::EP}) {
                const auto &srcs = heads_[int(unit)][t].srcs;
                if (srcs[0] == di.physDst || srcs[1] == di.physDst ||
                    srcs[2] == di.physDst)
                    invalidateHead(ctx, unit);
            }
        }
        if (di.loadMissed) {
            syncWindows(ctx, now);
            ctx.perceived.close(di.missToken);
            ctx.missAndWindowKeys(keys_[t]);
        }
        if (di.isCondBr())
            keys_[t].unresolvedBranches = ctx.unresolvedBranches;
    }

    /**
     * Graduation visited @p ctx; @p retired: instructions left its ROB,
     * freeing room, which ends a dispatch wait; @p waits: its head is
     * incomplete, or a store whose data is not ready.
     */
    void
    graduated(const Context &ctx, bool retired, bool waits)
    {
        const ThreadId t = ctx.tid;
        keys_[t].robOccupancy = std::uint32_t(ctx.rob.size());
        if (retired)
            wakeDispatch(t);
        if (waits || ctx.rob.empty())
            graduateSet_.erase(t);
    }

    /** The L1 refused thread @p t's head waiting in @p w, at @p addr,
     *  for @p why (NoMshr or Conflict): it waits out of its stage set. */
    void refused(Waiting w, ThreadId t, Addr addr, MemReject why,
                 const MemorySystem &mem);

    /** An access allocated @p line (a primary miss): every head waiting
     *  for it would merge, so each returns to its stage set. */
    void lineAllocated(std::uint64_t line);

    /** Context::syncWindows(@p now) of @p ctx, mirrored into its keys:
     *  before any change to its IQ occupancy or miss count. */
    void
    syncWindows(Context &ctx, Cycle now)
    {
        if (ctx.syncWindows(now))
            ctx.missAndWindowKeys(keys_[ctx.tid]);
    }

    /**
     * Classification: recompute the classes of @p unit invalidated since
     * its last cycle with a free slot. A clean class that proves the
     * head cannot issue takes the thread out of the unit's issue set.
     */
    void classify(Unit unit, const Contexts &contexts);

    /** A cycle with a free @p unit slot: a clean WaitMem class on an
     *  open miss is owed one more perceived stall. */
    void slotFree(Unit unit) { freeSlots_[int(unit)] += 1; }

    /** An idle span of @p cycles, every slot free, in which every class
     *  was classified before and holds throughout. */
    void
    idleSpan(std::uint64_t cycles)
    {
        MTDAE_ASSERT(dirty_[0].empty() && dirty_[1].empty(),
                     "stall class invalidated inside an idle span");
        freeSlots_[0] += cycles;
        freeSlots_[1] += cycles;
    }

    /** Charge every clean class its owed stalls (before a save). */
    void chargeAllStalls(Contexts &contexts);

  private:
    /** A refused head: its address, its L1 line, and for a Conflict
     *  refusal the cycle its frame's fill of another line lands (0 for
     *  NoMshr; once that fill landed, it waits as one refused for an
     *  MSHR). */
    struct Waiter
    {
        Addr addr = 0;
        std::uint64_t line = 0;
        Cycle until = 0;
    };

    /** A cached StallClass, how far its perceived stalls are charged
     *  (a freeSlots_ value), and the head's renamed sources: a
     *  completion changes the class only of a head reading its
     *  register. */
    struct HeadClass
    {
        StallClass cls;
        std::uint64_t chargedTo = 0;
        std::array<PhysReg, 3> srcs = {kNoPhysReg, kNoPhysReg,
                                       kNoPhysReg};
        bool dirty = true;  ///< invalidated; cls and srcs are stale
    };

    /** Waiters per bucket of lines (the line mod kLineBuckets). */
    static constexpr std::size_t kLineBuckets = 1024;

    static const Ring<DynInst *> &
    queueOf(const Context &ctx, Unit unit)
    {
        return unit == Unit::AP ? ctx.apQ : ctx.iq;
    }

    ThreadSet &
    stageOf(Waiting w)
    {
        return w == Loads ? issueSet_[0] : graduateSet_;
    }

    /** Thread @p t's @p unit queue occupancy key. */
    std::uint32_t
    queued(Unit unit, ThreadId t) const
    {
        const ThreadState &k = keys_[t];
        return unit == Unit::AP ? k.apQueueOccupancy : k.iqOccupancy;
    }

    /** The issue set's rule for a head whose class is dirty. */
    bool
    issuable(Unit unit, ThreadId t) const
    {
        return queued(unit, t) > 0 &&
               !(unit == Unit::AP && waiting_[Loads].contains(t));
    }

    /** The dispatch set's rule without a wait mark. */
    bool
    dispatchable(ThreadId t) const
    {
        const ThreadState &k = keys_[t];
        return k.fetchBufOccupancy > 0 && k.robOccupancy < cfg_.robEntries;
    }

    /** The fetch set's rule. */
    bool
    fetchable(ThreadId t) const
    {
        return keys_[t].fetchBufOccupancy < cfg_.fetchBufferSize;
    }

    /** An event that can make canDispatch true: clear the wait mark. */
    void wakeDispatch(ThreadId t) { dispatchSet_.assign(t, dispatchable(t)); }

    /**
     * Drop the cached stall class of @p ctx's @p unit head after charging
     * the stalls it is owed; on an event that can change the class,
     * before the event closes the miss the class may wait on.
     */
    void
    invalidateHead(Context &ctx, Unit unit)
    {
        HeadClass &h = heads_[int(unit)][ctx.tid];
        if (h.dirty)
            return;  // nothing owed since the class was dropped
        chargeStalls(ctx, unit);
        h.dirty = true;
        issueSet_[int(unit)].assign(ctx.tid, issuable(unit, ctx.tid));
        dirty_[int(unit)].push_back(ctx.tid);
    }

    /** Does @p cls prove @p ctx's @p unit head cannot issue: WaitMem,
     *  WaitFu, or not decoupled and not next in program order? */
    bool blocks(const StallClass &cls, const Context &ctx, Unit unit) const;
    /** Charge @p ctx's clean @p unit class its stalls up to now. */
    void chargeStalls(Context &ctx, Unit unit);
    /** Return thread @p t's head from @p w to its stage set. */
    void unwait(Waiting w, ThreadId t);

    SimConfig cfg_;

    std::vector<ThreadState> keys_;
    /** Per Waiting, the threads whose head waits and each thread's
     *  record, meaningful while the thread is in the set. */
    std::array<ThreadSet, 2> waiting_;
    std::array<std::vector<Waiter>, 2> waiter_;
    /** The waiting loads and stores per bucket of L1 lines: an
     *  allocation whose bucket is empty wakes no one. */
    std::vector<std::uint32_t> waitingLines_;
    std::array<ThreadSet, 2> issueSet_;  ///< indexed by Unit
    ThreadSet dispatchSet_;
    ThreadSet fetchSet_;
    ThreadSet graduateSet_;
    ThreadSet all_;
    ThreadSet admitted_;  ///< a stage set and its waiters (admits())
    /**
     * Per unit (indexed by Unit), the stall class of every thread's
     * queue head, the threads whose class awaits recomputation, and
     * the number of cycles that unit had a free slot. A clean WaitMem
     * class on an open miss is owed freeSlots_ - chargedTo perceived
     * stalls, charged when it is invalidated (so before its miss
     * closes) and before a save.
     */
    std::array<std::vector<HeadClass>, 2> heads_;
    std::array<std::vector<ThreadId>, 2> dirty_;
    std::array<std::uint64_t, 2> freeSlots_{};
};

} // namespace mtdae

#endif // MTDAE_CORE_DERIVED_STATE_HH
