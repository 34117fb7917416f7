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
 * describes the cycle's ranking over the per-context keys, and each
 * stage walks, in that order, only the threads of its stage set
 * (common/thread_set.hh): the threads its skip conditions would let
 * through, kept as bitsets that change where a condition flips. An
 * idle thread costs a stage nothing, not even a key read.
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
 *
 * The keys, the stage sets, the waiting heads and the cached stall
 * classes are one DerivedState (core/derived_state.hh). The stages
 * report their events to it and write none of it themselves, and
 * checkInvariants() re-derives all of it from scratch.
 */

#ifndef MTDAE_CORE_SIMULATOR_HH
#define MTDAE_CORE_SIMULATOR_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"
#include "core/context.hh"
#include "core/derived_state.hh"
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
     */
    void setProfiling(bool on);

    /** True while profiling is enabled. */
    bool profilingEnabled() const { return profileEnabled_; }

    /**
     * Check, between cycles, that the derived state agrees with the
     * simulated state (DerivedState::check): "" when it does, or the
     * first disagreement, naming the rule, the thread and the cycle.
     * Const, so it syncs no window, charges no stall and peeks no
     * trace: calling it cannot change a result.
     */
    std::string
    checkInvariants() const
    {
        return derived_.check(contexts_, mem_, now_);
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

  private:
    using enum DerivedState::Waiting;

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
    void graduateStage();
    /** Policy endCycle()s, now_ advance, and the window sync of a policy
     *  that reads the windows (windowsRead_). */
    void finishCycle();
    /** DerivedState::syncWindows() for every context. */
    void syncAllWindows();

    /** step() body; Profiled selects the timing instrumentation. */
    template <bool Profiled> void stepImpl();

    // --- Idle fast-forward engine (cfg_.cycleSkip) ---------------------
    /**
     * True when stepping the current cycle could not change any
     * simulated state except the per-cycle bookkeeping idleStepStats()
     * reproduces: no completion event is due, no ROB head can graduate,
     * no queue head can issue (or attempt a memory access), no thread
     * can dispatch, fetch or flush. A waiting load or store is neither
     * issuable nor graduable while it waits blocked
     * (DerivedState::blocked): until the next fill the L1 refuses it
     * without side effects. Conservative: any doubt
     * returns false, naming the first failed condition in @p blocker,
     * and the cycle is stepped normally.
     */
    bool quiescent(SkipProbe &blocker);
    /**
     * Earliest cycle after now_ at which quiescence could end: the
     * completion-event head, every gated thread's fetchResumeAt, and,
     * while a load or store waits, the next fill.
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
        if (profileEnabled_)
            profile_.skipProbes[std::size_t(outcome)] += 1;
    }

    SimConfig cfg_;
    MemorySystem mem_;
    std::vector<std::unique_ptr<Context>> contexts_;
    /** Every issued instruction's completion (core/event_queue.hh). */
    EventQueue events_;

    Cycle now_ = 0;

    // Thread arbitration (src/policy/policy.hh): the policies and each
    // seam's ranking, fixed for its walks.
    FetchPolicy fetchPolicy_;
    ArbitrationPolicy issuePolicy_;
    /** A policy in force reads the window keys: sync every context's
     *  windows at the end of every cycle. */
    bool windowsRead_ = false;
    /** The keys the policies rank by, the stage sets, the waiting heads
     *  and the cached stall classes (core/derived_state.hh). */
    DerivedState derived_;
    /** Each seam's ranking of this cycle, with its keys read once: the
     *  issue rankings before the issue stage, over every thread (both
     *  passes walk them, and the slot accounting reads their first
     *  threads); dispatch after issue, over the dispatch set; fetch
     *  after the flush pass, over the fetch set. */
    std::array<RankedWalk, 2> issueRank_;
    RankedWalk dispatchRank_;
    RankedWalk fetchRank_;

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
    /** The deadlock guard fires after this many cycles without a
     *  graduation: longer than any legal wait of this machine. */
    Cycle progressHorizon_ = 0;
    /** Cycles fast-forwarded in this interval (RunResult::cyclesSkipped);
     *  interval statistics like slotsAp_, not simulated state — never
     *  serialized into snapshots. */
    std::uint64_t cyclesSkipped_ = 0;
    /** Spans fast-forwarded in this interval (RunResult::skipEvents). */
    std::uint64_t skipEvents_ = 0;
};

} // namespace mtdae

#endif // MTDAE_CORE_SIMULATOR_HH
