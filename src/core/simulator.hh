/**
 * @file
 * The multithreaded decoupled access/execute processor simulator: the
 * paper's proposed machine, cycle by cycle.
 *
 * Pipeline, evaluated once per cycle:
 *   1. memory begin-cycle (ports recycle, MSHR fills land)
 *   2. completions (writeback: wake consumers, resolve branches; the
 *      cycle's bucket of the completion calendar, in push order)
 *   3. issue (per unit, in order per thread, across threads in the
 *      ArbitrationPolicy's visit order, full simultaneous issue; slot
 *      accounting — over the same visit order — and perceived-latency
 *      attribution, both from stall classes cached per queue head; a
 *      load the L1 refuses for want of an MSHR or a frame waits, its
 *      thread's AP queue unvisited, for the event that can admit it —
 *      an MSHR free, its frame's fill, its line allocated by another
 *      access — and is then re-checked through the L1's probe; a head
 *      whose cached class proves it blocked is skipped until the event
 *      that invalidates the class)
 *   4. dispatch (rename, steer to AP queue / EP Instruction Queue,
 *      allocate ROB and SAQ entries; threads visited in the
 *      ArbitrationPolicy's dispatch order; a thread whose head found
 *      no room waits, without a Context access, for a graduation, an
 *      issue from its queues or a flush)
 *   5. fetch (2 threads per cycle chosen by the FetchPolicy — ICOUNT by
 *      default — up to 8 consecutive instructions to the first taken
 *      branch; mispredicted branches gate fetch until resolution —
 *      trace-driven wrong-path modelling. Gating policies are applied
 *      here first: FetchPolicy::shouldFlush() squashes a thread's
 *      not-yet-dispatched buffer for later replay, and
 *      FetchPolicy::mayFetch() vetoes threads from the ranked walk)
 *   6. graduate (in-order retirement; stores write the cache here; a
 *      thread whose ROB head is incomplete, or a store without its
 *      data, waits for a completion in the thread; one whose head store
 *      the L1 refuses for want of an MSHR or a frame waits, as a
 *      refused load does, for the event that can admit it)
 *
 * Thread arbitration is pluggable (src/policy/policy.hh), selected by
 * SimConfig::fetchPolicy / SimConfig::issuePolicy. Each seam's policy
 * describes the cycle's ranking over the per-context keys the stages
 * keep live (Simulator::policyKeys), and each stage walks, in that
 * order, only the threads of its stage set (common/thread_set.hh): the
 * threads its skip conditions would let through, kept as bitsets that
 * change where a condition flips. An idle thread costs a stage
 * nothing, not even a key read.
 *
 * The per-thread bookkeeping behind the statistics follows events, not
 * cycles: the trailing windows are sampled lazily (Context::syncWindows)
 * and a head's stall class is recomputed only after an event that can
 * change it, so under policies that do not read the windows no cycle
 * walks every context for either. A blocked head waits for its event
 * the same way, in every stage and in the idle-skip engine: a waiting
 * load or store is no activity while its event cannot come, and the
 * cycle it can is a wake source. So a cycle touches a Context only
 * where something can happen.
 */

#ifndef MTDAE_CORE_SIMULATOR_HH
#define MTDAE_CORE_SIMULATOR_HH

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "common/config.hh"
#include "common/thread_set.hh"
#include "common/types.hh"
#include "core/context.hh"
#include "core/event_queue.hh"
#include "core/profile.hh"
#include "core/slot_stats.hh"
#include "memory/memory_system.hh"
#include "policy/policy.hh"

namespace mtdae {

struct Snapshot;

/**
 * Aggregated results of a measured simulation interval.
 */
struct RunResult
{
    std::uint64_t cycles = 0;  ///< Measured cycles.
    std::uint64_t insts = 0;   ///< Instructions graduated while measured.
    double ipc = 0.0;          ///< insts / cycles.

    double perceivedFp = 0.0;   ///< Avg perceived FP-load miss latency.
    double perceivedInt = 0.0;  ///< Avg perceived int-load miss latency.
    double perceivedAll = 0.0;  ///< Avg perceived latency over all misses.
    std::uint64_t fpMisses = 0;   ///< FP-load misses in the interval.
    std::uint64_t intMisses = 0;  ///< Int-load misses in the interval.

    double loadMissRatio = 0.0;   ///< L1 load miss ratio (primary).
    double storeMissRatio = 0.0;  ///< L1 store miss ratio (primary).
    double missRatio = 0.0;       ///< Combined L1 miss ratio (primary).
    double mergedRatio = 0.0;     ///< Delayed hits / all accesses.
    double busUtilization = 0.0;  ///< L1-L2 bus utilisation.

    /** Avg end-to-end L1-miss fill latency in cycles. With the perfect
     *  L2 this is ~l2Latency + transfer; with the finite backend it is
     *  the *emergent* memory latency (docs/MEMORY.md). */
    double avgFillLatency = 0.0;
    double l2MissRatio = 0.0;        ///< L2 miss ratio (finite backend).
    double dramRowHitRatio = 0.0;    ///< DRAM row-buffer hit ratio.
    double dramBusUtilization = 0.0; ///< DRAM data bus utilisation.

    SlotBreakdown ap;  ///< AP issue-slot breakdown.
    SlotBreakdown ep;  ///< EP issue-slot breakdown.

    double mispredictRate = 0.0;  ///< Conditional-branch mispredict rate.

    /** Cycles of the interval fast-forwarded by the idle skip engine
     *  (a subset of cycles; 0 with --cycle-skip=off). Observability
     *  only: excluded from every byte-identity comparison, because the
     *  simulated statistics are identical either way. */
    std::uint64_t cyclesSkipped = 0;
    /** Quiescent spans fast-forwarded (trySkipIdle successes). */
    std::uint64_t skipEvents = 0;

    /** Per-stage wall-clock breakdown of the measured interval. All
     *  zeros (enabled == false) unless Simulator::setProfiling(true)
     *  was in force; wall-clock measurement, never part of any
     *  byte-identity comparison. */
    StageProfile profile;

    // --- Per-thread QoS / fairness metrics (docs/POLICIES.md) --------
    /** Instructions each thread graduated in the interval (indexed by
     *  tid; insts == sum of this vector). */
    std::vector<std::uint64_t> threadInsts;
    /**
     * Per-thread slowdown relative to the thread's weighted fair share:
     * (w_i / sum_w) * total_insts / insts_i. Exactly 1.0 for every
     * thread when progress is proportional to weight; > 1 for threads
     * receiving less than their share; 0 when the thread graduated
     * nothing (no meaningful slowdown is defined).
     */
    std::vector<double> threadSlowdown;
    /** Weight-averaged per-thread IPC: sum(w_i * insts_i / cycles) /
     *  sum_w. Equals ipc / numThreads-mean under uniform weights. */
    double weightedSpeedup = 0.0;
    /**
     * Harmonic mean of the per-thread normalized progress x_i =
     * (insts_i / total_insts) / (w_i / sum_w). 1.0 at perfectly
     * weight-proportional progress, pulled toward 0 by any starved
     * thread; exactly 0 when some thread graduated nothing.
     */
    double fairnessHmean = 0.0;
    /** min(x_i) / max(x_i) over the same normalized progress: the
     *  max-min fairness ratio in [0, 1]. */
    double fairnessMaxMin = 0.0;
};

/**
 * Compute the QoS metrics above from per-thread interval instruction
 * counts, per-thread weights (same length) and the interval cycle
 * count, filling RunResult::threadInsts, ::threadSlowdown,
 * ::weightedSpeedup, ::fairnessHmean and ::fairnessMaxMin of @p r.
 * Free function so tests can check the arithmetic against hand-computed
 * values without running a simulation.
 */
void computeQosMetrics(const std::vector<std::uint64_t> &insts,
                       const std::vector<std::uint32_t> &weights,
                       std::uint64_t cycles, RunResult &r);

/**
 * The simulated processor. Owns the memory system and one Context per
 * hardware thread; trace sources are supplied at construction.
 */
class Simulator
{
  public:
    /**
     * @param cfg     machine configuration, validated before anything
     *                is built from it (throws ConfigError)
     * @param sources one trace source per hardware context
     */
    Simulator(const SimConfig &cfg,
              std::vector<std::unique_ptr<TraceSource>> sources);

    /**
     * Run the warm-up (cfg.warmupInsts), reset statistics, then run until
     * @p measure_insts more instructions graduate (or all traces end, or
     * @p max_cycles elapse).
     */
    RunResult run(std::uint64_t measure_insts,
                  std::uint64_t max_cycles = std::uint64_t(1) << 40);

    /**
     * Run just the warm-up phase (cfg.warmupInsts graduations). run()
     * is exactly runWarmup() followed by runMeasure(), split out so the
     * sweep engine can checkpoint between the phases.
     */
    void runWarmup(std::uint64_t max_cycles = std::uint64_t(1) << 40);

    /** Reset statistics and run the measured interval (see run()). */
    RunResult runMeasure(std::uint64_t measure_insts,
                         std::uint64_t max_cycles = std::uint64_t(1) << 40);

    /**
     * Capture the complete mutable simulator state as a versioned
     * snapshot (src/core/snapshot.hh). Restoring it into a Simulator
     * constructed from the same configuration and workload recipe
     * resumes the simulation byte-identically. Brings the lazily kept
     * statistics up to date first (the trailing windows and the
     * perceived stalls owed to cached stall classes), which changes no
     * result.
     */
    Snapshot saveSnapshot();

    /**
     * Restore state captured by saveSnapshot(). This simulator must
     * have been constructed with the same configuration (enforced via
     * the snapshot's config hash) and the same workload; throws
     * SnapshotError otherwise.
     */
    void restoreSnapshot(const Snapshot &snap);

    /** Advance one cycle (exposed for unit tests). */
    void step();

    /**
     * Enable or disable per-stage wall-clock profiling (core/profile.hh).
     * The accumulated breakdown is cleared by resetStats() and reported
     * in RunResult::profile, so after run() it covers exactly the
     * measured interval.
     *
     * @return false when @p on is true but the instrumentation was
     *         compiled out (-DMTDAE_PROFILE=OFF); profiling stays off
     */
    bool setProfiling(bool on);

    /** True when profiling is compiled in and currently enabled. */
    bool profilingEnabled() const { return profileEnabled_; }

    /**
     * The live policy keys, indexed by tid: what the policies are
     * handed, with every context's windows first brought up to the
     * current cycle. Each equals Context::policyState() of its context
     * between step()s (the property tests' oracle).
     */
    const std::vector<ThreadState> &
    policyKeys()
    {
        syncAllWindows();
        return keys_;
    }

    /**
     * The cached stall class of @p unit's queue head in thread @p t,
     * or nothing while an event has invalidated it and it awaits
     * recomputation. A cached class equals Context::stallClass() of
     * the head (the property tests' oracle).
     */
    std::optional<StallClass> cachedStallClass(Unit unit, ThreadId t) const;

    /**
     * True when the cached class of @p unit's head in thread @p t is
     * clean and proves the head cannot issue, so issue skips the head.
     */
    bool
    cachedBlocked(Unit unit, ThreadId t) const
    {
        const std::size_t u = std::size_t(unit);
        return !heads_[u].at(t).dirty && queued(unit, t) > 0 &&
               !(unit == Unit::AP && loads_.set.contains(t)) &&
               !issueSet_[u].contains(t);
    }

    /**
     * A load or store head the L1 refused for want of an MSHR
     * (MemReject::NoMshr) or by a frame filling another line
     * (MemReject::Conflict), held out of its stage set until an event
     * that can admit it:
     * - its frame's fill, for a Conflict refusal: the head is not
     *   attempted before `until`;
     * - an MSHR free when its stage's walk starts: the walk visits the
     *   waiting heads too, in its order, and attempts each whose
     *   `until` has come while an MSHR is still free;
     * - its line allocated by another access (a primary miss), however
     *   many MSHRs are left: the head would merge, so it leaves the
     *   waiters at once. That covers a load that allocates the line
     *   before graduation runs, and a head its walk did not reach
     *   (issue ran out of slots) before the line was allocated.
     * Every attempt this skips would be refused without side effect,
     * because an MSHR frees only as a fill lands, a line becomes
     * resident or filling only through an access that allocates it,
     * and a pending fill is never cancelled. An attempt re-checks the
     * head through MemorySystem::refusal() before it touches the
     * Context: a frame refusal waits again, a port refusal retries next
     * cycle in the stage set.
     */
    struct Waiter
    {
        Addr addr = 0;           ///< The refused access's address.
        std::uint64_t line = 0;  ///< Its L1 line (MemorySystem::lineOf).
        /** The cycle the frame's fill of another line lands, for a
         *  Conflict refusal; 0 for NoMshr. Once it has landed, the
         *  head waits as one refused for an MSHR. */
        Cycle until = 0;
    };

    /** Thread @p t's AP-queue head load while it waits (Waiter), or
     *  nothing. Issue leaves a waiting AP queue unvisited. */
    std::optional<Waiter>
    waitingLoad(ThreadId t) const
    {
        return loads_.set.contains(t) ? std::optional(loads_.at[t])
                                      : std::nullopt;
    }

    /** waitingLoad() for thread @p t's ROB-head store (graduation). */
    std::optional<Waiter>
    waitingStore(ThreadId t) const
    {
        return stores_.set.contains(t) ? std::optional(stores_.at[t])
                                       : std::nullopt;
    }

    /** The threads each pipeline stage walks (stageVisits). */
    enum class StageSet : std::uint8_t {
        IssueAp, IssueEp, Dispatch, Fetch, Graduate
    };

    /**
     * Is thread @p t in stage @p s's set: would the stage, reached now,
     * visit it whatever the L1's state? Issue: the unit's queue holds a
     * head that is not cachedBlocked(), and on the AP no waitingLoad().
     * Dispatch: a buffered instruction, room in the ROB, not
     * dispatchWaiting(). Fetch: room in the fetch buffer. Graduation: a
     * ROB head, not graduateWaiting(), no waitingStore(). A waiting
     * head is visited besides, when its walk starts with an MSHR free.
     */
    bool
    stageVisits(StageSet s, ThreadId t) const
    {
        switch (s) {
          case StageSet::IssueAp: return issueSet_[0].contains(t);
          case StageSet::IssueEp: return issueSet_[1].contains(t);
          case StageSet::Dispatch: return dispatchSet_.contains(t);
          case StageSet::Fetch: return fetchSet_.contains(t);
          case StageSet::Graduate: return graduateSet_.contains(t);
        }
        return false;
    }

    /** Room for @p ctx's fetch-buffer head, which must exist: ROB, unit
     *  queue, SAQ, rename register (tryDispatch's checks, side-effect
     *  free). */
    bool
    canDispatch(const Context &ctx) const
    {
        const FetchedInst &fi = ctx.fetchBuf.front();
        const TraceInst &ti = fi.ti;
        const Unit unit = ti.unit();

        if (ctx.rob.size() >= cfg_.robEntries)
            return false;
        if (ti.op != Opcode::Nop) {
            const auto &queue = unit == Unit::AP ? ctx.apQ : ctx.iq;
            const std::size_t cap =
                unit == Unit::AP ? cfg_.apQueueEntries : cfg_.iqEntries;
            if (queue.size() >= cap)
                return false;
        }
        if (isStore(ti.op) && ctx.saq.size() >= cfg_.saqEntries)
            return false;
        if (ti.dst.valid() && !ctx.file(ti.dst.cls).hasFree())
            return false;
        return true;
    }

    /** True while dispatch passes over thread @p t: its last attempt
     *  failed canDispatch, and no event that can change that came since. */
    bool
    dispatchWaiting(ThreadId t) const
    {
        return dispatchable(t) && !dispatchSet_.contains(t);
    }

    /** True while graduation passes over thread @p t: its ROB head was
     *  incomplete, or a store whose data was not ready, and no
     *  completion in the thread came since. */
    bool
    graduateWaiting(ThreadId t) const
    {
        return keys_.at(t).robOccupancy > 0 && !stores_.set.contains(t) &&
               !graduateSet_.contains(t);
    }

    /** Current cycle. */
    Cycle now() const { return now_; }

    /** Begin a fresh statistics interval at the current cycle. */
    void resetStats();

    /** Snapshot the statistics interval ending now. */
    RunResult snapshot() const;

    /** Total instructions graduated since construction. */
    std::uint64_t totalGraduated() const { return totalGraduated_; }

    /** True when every thread's trace is exhausted and drained. */
    bool allDone() const;

    /** Per-thread state (tests and detailed reporting). */
    Context &context(ThreadId t) { return *contexts_.at(t); }
    /** Per-thread state (const). */
    const Context &context(ThreadId t) const { return *contexts_.at(t); }

    /** The memory hierarchy. */
    const MemorySystem &memory() const { return mem_; }

    /** The configuration in force. */
    const SimConfig &config() const { return cfg_; }

  private:
    void processCompletions();
    /** Fix both units' issue rankings over every thread (the walks of
     *  both passes and the slot accounting share them). */
    void fixIssueRankings();
    /** Issue in this cycle's fixed rankings, then slot accounting. */
    void issueStage();
    /** @return instructions issued; decrements @p slots. */
    std::uint32_t issueUnit(Unit unit, std::uint32_t &slots);
    bool tryIssue(Context &ctx, DynInst &di);
    /** Spread @p free_slots over the heads of the first threads of
     *  @p unit's fixed ranking, wrapping. */
    void accountSlots(Unit unit, std::uint32_t free_slots);
    /** Dispatch in this cycle's dispatch ranking. */
    void dispatchStage();
    bool tryDispatch(Context &ctx);
    /** The fetch gating pass: FetchPolicy::shouldFlush per buffered
     *  thread, under a policy that flushes at all. */
    void flushStage();
    /** Fetch in this cycle's fetch ranking. */
    void fetchStage();
    void fetchThread(Context &ctx);
    bool ensurePending(Context &ctx);
    /** Next instruction in program order (replayed flushes first,
     *  then the trace lookahead); null when the thread is drained. */
    const TraceInst *nextInst(Context &ctx);
    /** Consume the instruction nextInst() returned. */
    void consumeNext(Context &ctx);
    /**
     * Squash @p ctx's not-yet-dispatched fetch buffer (the flush
     * gating policy): the buffered instructions move to the front of
     * the thread's replay queue for later re-fetch, fetch-time branch
     * bookkeeping is unwound, and the sequence counter rewinds to the
     * first squashed instruction (nothing younger was ever fetched).
     */
    void flushFetchBuffer(Context &ctx);
    /** The waiting heads of one stage (Waiter): each thread's record,
     *  meaningful while the thread is in the set. */
    struct Waiters
    {
        std::vector<Waiter> at;
        ThreadSet set;
    };
    /**
     * May thread @p t's head, waiting in @p w and reached by its stage's
     * walk, be attempted now? Before its frame's fill, or with no MSHR
     * free, no. Otherwise the L1's side-effect-free probe of its
     * address decides: accepted returns the head to its @p stage set
     * and true, a port refusal returns it there to retry next cycle,
     * and an MSHR or frame refusal waits again, as the real attempt
     * would.
     */
    bool mayAttempt(Waiters &w, ThreadSet &stage, ThreadId t);
    /** Hold thread @p t's head, refused by the L1 for @p why (NoMshr or
     *  Conflict) at @p addr, in @p w and out of its @p stage set. */
    void wait(Waiters &w, ThreadSet &stage, ThreadId t, Addr addr,
              MemReject why);
    /** Waiter::until of a head refused for @p why at @p line. */
    Cycle
    waitUntil(std::uint64_t line, MemReject why) const
    {
        return why == MemReject::Conflict ? mem_.frameFillCycle(line) : 0;
    }
    /** Return thread @p t's head from @p w to its @p stage set. */
    void unwait(Waiters &w, ThreadSet &stage, ThreadId t);
    /**
     * Does a walk of @p stage starting now visit the heads waiting in
     * @p w too (some wait, and an MSHR is free)? If so, admitted_ holds
     * the union to walk. During a walk only the visited thread changes
     * sets, or a woken one moves from the waiters into the stage set,
     * so the union stays the one the walk would read live.
     */
    bool admits(const ThreadSet &stage, const Waiters &w);
    /** An access allocated @p line: every head waiting for it would
     *  merge, so each returns to its stage set. */
    void wakeLine(std::uint64_t line);
    /**
     * True while waiting head @p w is refused at every cycle up to the
     * next fill with no L1 access (a quiescent span makes none): no
     * fill lands this cycle, and its frame still fills another line or
     * no MSHR is free. The next fill is the wake (nextWakeCycle) even
     * for a head whose frame fills later: that steps the cycle a fill
     * lands, as for every waiter, and keeps the skip statistics the
     * skip goldens pin.
     */
    bool
    waitBlocked(const Waiter &w) const
    {
        return mem_.nextFillCycle() > now_ &&
               (w.until > now_ || !mem_.mshrFree());
    }
    void graduateStage();
    /** Policy endCycle()s, now_ advance, and the window sync of a policy
     *  that reads the windows (windowsRead_). */
    void finishCycle();

    // --- Lazily kept per-thread statistics -----------------------------
    /** Context::syncWindows(now_), mirrored into the context's keys. */
    void syncWindows(Context &ctx);
    /** syncWindows() for every context. */
    void syncAllWindows();
    /**
     * Drop the cached stall class of @p unit's head in thread @p t
     * after charging the stalls it is owed; called before any event
     * that can change the class (the completion of a register the head
     * reads, an issue that moves the head or opens a miss, a dispatch
     * into the empty queue).
     */
    void
    invalidateHead(Unit unit, ThreadId t)
    {
        const std::size_t u = std::size_t(unit);
        HeadClass &h = heads_[u][t];
        if (h.dirty)
            return;  // nothing owed since the class was dropped
        chargeStalls(unit, t);
        h.dirty = true;
        issueSet_[u].assign(t, queued(unit, t) > 0 &&
                                   !(unit == Unit::AP &&
                                     loads_.set.contains(t)));
        dirtyHeads_[u].push_back(t);
    }
    /** Charge a clean class's perceived stalls up to this cycle. */
    void chargeStalls(Unit unit, ThreadId t);
    /** chargeStalls() on every clean class (before a save). */
    void chargeAllStalls();
    /** Recompute the classes of @p unit invalidated since its last
     *  cycle with a free slot. */
    void classifyDirtyHeads(Unit unit);
    /** Rebuild every derived structure from the simulated state at
     *  now_: keys, waiters (none), wait marks, window sync points, stall
     *  classes, stage sets. */
    void rebuildDerived();

    // --- Stage sets ----------------------------------------------------
    /** Thread @p t's @p unit queue occupancy key. */
    std::uint32_t
    queued(Unit unit, ThreadId t) const
    {
        const ThreadState &k = keys_[t];
        return unit == Unit::AP ? k.apQueueOccupancy : k.iqOccupancy;
    }
    /** Would dispatch visit thread @p t but for a wait mark: a buffered
     *  instruction and room in the ROB? */
    bool
    dispatchable(ThreadId t) const
    {
        const ThreadState &k = keys_[t];
        return k.fetchBufOccupancy > 0 && k.robOccupancy < cfg_.robEntries;
    }

    /** step() body; Profiled selects the timing instrumentation. */
    template <bool Profiled> void stepImpl();

    // --- Idle fast-forward engine (cfg_.cycleSkip) ---------------------
    /**
     * True when stepping the current cycle could not change any
     * simulated state except the per-cycle bookkeeping idleStepStats()
     * reproduces: no completion event is due, no ROB head can graduate,
     * no queue head can issue (or attempt a memory access), no thread
     * can dispatch, fetch or flush. A waiting load or store is neither
     * issuable nor graduable while waitBlocked(): until the next fill
     * the L1 refuses it without side effects. Conservative: any doubt
     * returns false, naming the first failed condition in @p blocker,
     * and the cycle is stepped normally.
     */
    bool quiescent(SkipProbe &blocker);
    /**
     * Earliest cycle after now_ at which quiescence could end: the
     * completion-event head, every gated thread's fetchResumeAt, and,
     * while a load or store waits, the next fill (waitBlocked).
     * kNoCycle when nothing is pending. The memory system is otherwise
     * no wake source: its model is analytic (a reservation is a
     * timestamp the next access reads), nothing accesses it inside a
     * quiescent span, every load fill is a completion event, and
     * trySkipIdle's catch-up beginCycle lands the L1 fills, those of a
     * span ending at a fill a head waits for included.
     */
    Cycle nextWakeCycle() const;
    /**
     * One cycle of quiescent bookkeeping, byte-identical to stepImpl on
     * a quiescent cycle: slot accounting over the policy issue rankings,
     * then finishCycle(). No stage logic runs — quiescence means none
     * would do anything.
     */
    void idleStepStats();
    /**
     * The run loop's idle-skip probe. When cycle skip is on, no
     * graduation happened in the last two cycles (a cheap gate: an
     * idle span cannot contain one, so a recent graduation means the
     * full quiescent() scan would be wasted work) and quiescent(),
     * advance now_ and every cycle-indexed statistic to min(next wake,
     * @p max_cycles, deadlock-guard horizon) without evaluating the
     * pipeline stages. Byte-identical to stepping the same span. Under
     * profiling, counts the probe's outcome (SkipProbe).
     *
     * @return true when at least one cycle was skipped (the run loop
     *         skips its step() for this iteration)
     */
    bool trySkipIdle(std::uint64_t max_cycles);
    /** Count one probe outcome when profiling. */
    void
    noteProbe(SkipProbe outcome)
    {
#if MTDAE_PROFILE
        if (profileEnabled_)
            profile_.skipProbes[std::size_t(outcome)] += 1;
#else
        (void)outcome;
#endif
    }

    SimConfig cfg_;
    MemorySystem mem_;
    std::vector<std::unique_ptr<Context>> contexts_;
    /** Every issued instruction's completion (core/event_queue.hh). */
    EventQueue events_;

    Cycle now_ = 0;

    // Thread arbitration (src/policy/policy.hh): the policies, the keys
    // they rank by and each seam's ranking, fixed for its walks.
    FetchPolicy fetchPolicy_;
    ArbitrationPolicy issuePolicy_;
    /**
     * The policy keys of every context, indexed by tid, updated in
     * place wherever the Context state they mirror changes (fetch,
     * dispatch, issue, completion, miss open/close, flush, graduation,
     * window sync). The window keys are as of the context's last sync.
     * Derived state: rebuilt from Context::policyState() on restore,
     * never serialized.
     */
    std::vector<ThreadState> keys_;
    /** A policy in force reads the window keys: sync every context's
     *  windows at the end of every cycle. */
    bool windowsRead_ = false;
    /**
     * The waiting AP-queue head loads (issue) and ROB-head stores
     * (graduation), per thread (Waiter). A waiting head is out of its
     * stage set; its walk adds the waiters when it starts with an MSHR
     * free, and wakeLine() returns those whose line an access
     * allocates. Waiting is exact because a waiting head cannot change
     * (its queue or ROB does not move), its gates stay passed (ready
     * registers stay ready, a waiting load cannot turn forwardable),
     * and a refusal has no side effect. A waitBlocked() head does not
     * break quiescence, and the next fill is a wake source. Derived
     * state: empty after a restore, never serialized (a restored run
     * re-attempts each head once and it waits again).
     */
    Waiters loads_;
    Waiters stores_;
    /** The waiting loads and stores per bucket of L1 lines (the line
     *  mod kLineBuckets): an allocation whose bucket is empty wakes no
     *  one, so wakeLine() scans the waiters only on a bucket hit. */
    static constexpr std::size_t kLineBuckets = 1024;
    std::vector<std::uint32_t> waitingLines_;
    /**
     * The stage sets: per stage, the threads it would not pass over,
     * one bit per context, walked in the stage's ranking. Each is
     * updated where one of its conditions can flip, and holds the wait
     * marks and blocked classes as its own bits, not beside them:
     * - issue, per unit: a queued head whose class is not clean and
     *   blocked (WaitMem, WaitFu or, not decoupled, not next in program
     *   order), and on the AP no waiting load. A classification that
     *   proves the head blocked removes the thread until the head is
     *   invalidated (invalidateHead), which re-derives its bit.
     * - dispatch: a buffered instruction, room in the ROB, and no wait
     *   mark. A failed canDispatch removes the thread; a graduation in
     *   the thread (a ROB entry, an SAQ entry or a register freed), an
     *   issue from one of its unit queues, or a flush of its buffer
     *   re-derives its bit. Only dispatch itself fills the ROB, the
     *   queues, the SAQ and the register files, and the buffer head
     *   leaves only by dispatch or flush, so nothing else can make
     *   canDispatch true.
     * - fetch: room in the fetch buffer.
     * - graduation: a ROB head, no wait mark and no waiting store. A ROB
     *   head that is incomplete, or a store whose data register is not
     *   ready, removes the thread until any completion in the thread
     *   (the head, or the producer of the data register, which renames
     *   in the same context). The head leaves only by graduating.
     * Derived state: rebuilt from the contexts on restore, with no wait
     * mark, never serialized.
     */
    std::array<ThreadSet, 2> issueSet_;
    ThreadSet dispatchSet_;
    ThreadSet fetchSet_;
    ThreadSet graduateSet_;
    ThreadSet all_;  ///< every thread (the issue rankings' universe)
    ThreadSet admitted_;  ///< a stage set and its waiters (admits())
    /** Each seam's ranking of this cycle, with its keys read once: the
     *  issue rankings before the issue stage, over every thread (both
     *  passes walk them, and the slot accounting reads their first
     *  threads); dispatch after issue, over the dispatch set; fetch
     *  after the flush pass, over the fetch set. */
    std::array<RankedWalk, 2> issueRank_;
    RankedWalk dispatchRank_;
    RankedWalk fetchRank_;

    /** A cached StallClass, how far its perceived stalls are charged
     *  (a freeSlotCycles_ value), and the head's renamed sources: a
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
    /**
     * Per unit (indexed by Unit), the stall class of every thread's
     * queue head, the threads whose class awaits recomputation, and
     * the number of cycles that unit had a free slot. A clean WaitMem
     * class on an open miss is owed freeSlotCycles_ - chargedTo
     * perceived stalls, charged when it is invalidated (so before its
     * miss closes) and before a save. A clean class that proves the
     * head cannot issue takes the thread out of the unit's issue set.
     * Derived state: never serialized, every class dirty after a
     * restore.
     */
    std::array<std::vector<HeadClass>, 2> heads_;
    std::array<std::vector<ThreadId>, 2> dirtyHeads_;
    std::array<std::uint64_t, 2> freeSlotCycles_{};

    // Per-stage wall-clock profiling (core/profile.hh).
    bool profileEnabled_ = false;
    StageProfile profile_;

    // Statistics for the current interval.
    SlotBreakdown slotsAp_;
    SlotBreakdown slotsEp_;
    std::uint64_t totalGraduated_ = 0;
    Cycle measureStart_ = 0;
    std::uint64_t instsBase_ = 0;
    std::uint64_t mispredicts_ = 0;
    std::uint64_t condBranches_ = 0;
    std::uint64_t forwardedLoads_ = 0;
    Cycle lastGraduation_ = 0;
    /** Cycles fast-forwarded in this interval (RunResult::cyclesSkipped);
     *  interval statistics like slotsAp_, not simulated state — never
     *  serialized into snapshots. */
    std::uint64_t cyclesSkipped_ = 0;
    /** Spans fast-forwarded in this interval (RunResult::skipEvents). */
    std::uint64_t skipEvents_ = 0;
};

} // namespace mtdae

#endif // MTDAE_CORE_SIMULATOR_HH
