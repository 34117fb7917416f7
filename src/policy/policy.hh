/**
 * @file
 * Pluggable thread-arbitration policies: the scheduler of the shared
 * pipeline stages as an explicit, swappable layer instead of loops
 * hardwired into the Simulator.
 *
 * Two seams, consulted once per cycle each:
 *
 *  - FetchPolicy       — which threads get the I-cache ports this cycle,
 *                        and in what priority order. Beyond ordering, a
 *                        fetch policy can *gate*: mayFetch() vetoes a
 *                        thread's fetch outright, and shouldFlush()
 *                        asks the Simulator to squash the thread's
 *                        not-yet-dispatched fetch buffer (the STALL /
 *                        FLUSH schemes of the SMT fetch literature).
 *  - ArbitrationPolicy — the thread visit order for the shared dispatch
 *                        stage and for each issue unit (the slot
 *                        accounting consumes the *same* order the issue
 *                        stage used, so the Figure 3 attribution can
 *                        never drift from the arbitration). The Unit
 *                        parameter lets a policy order the AP and the
 *                        EP by different keys (the `split` policy).
 *
 * Determinism contract: a policy may keep private per-cycle state (the
 * round-robin rotation), but its output must be a pure function of that
 * state and of the ThreadState keys it is handed — never of wall
 * clock, allocation addresses or scheduling. This is what keeps every
 * sweep byte-identical at any --jobs count.
 *
 * Policies see the machine only through ThreadState: the per-context
 * keys the Simulator keeps live as the pipeline runs. They never touch
 * Context or Simulator internals.
 */

#ifndef MTDAE_POLICY_POLICY_HH
#define MTDAE_POLICY_POLICY_HH

#include <memory>
#include <string_view>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"
#include "isa/opcode.hh"

namespace mtdae {

class ByteWriter;
class ByteReader;

/**
 * Length, in cycles, of every trailing-window ThreadState statistic
 * (iqOccupancyWindow, missWindow). One shared constant so a policy can
 * reason about saturation: a value constant for a full window yields a
 * sum of `current_value * kPolicyWindowCycles`. Note the converse does
 * NOT hold — a mixed sample ring can coincidentally produce the same
 * sum — which is why ThreadState carries an explicit
 * missWindowUniform flag for stability reasoning.
 */
inline constexpr std::uint32_t kPolicyWindowCycles = 64;

/**
 * The per-context keys handed to policies — the only state a policy may
 * base its ordering or gating on. The Simulator owns one ThreadState
 * per context and updates each field in place at the pipeline point
 * that changes the machine state it mirrors (named per field below), so
 * a policy consulted mid-cycle sees the effects of the stages that
 * already ran. Context::policyState() recomputes the same keys from
 * scratch (the test oracle).
 */
struct ThreadState
{
    /** Hardware context id; stable for the simulation's lifetime. */
    ThreadId tid = 0;

    /**
     * Fetched instructions pending dispatch (the ICOUNT fetch key):
     * Context::fetchBuf.size(). Grows at fetch, shrinks at dispatch,
     * and drops to zero when a flush-gating policy squashes the buffer.
     */
    std::uint32_t fetchBufOccupancy = 0;
    /** AP pending-issue queue occupancy (Context::apQ.size()): grows
     *  at dispatch, shrinks as the AP issues. */
    std::uint32_t apQueueOccupancy = 0;
    /** EP Instruction Queue occupancy (Context::iq.size()) — the
     *  decoupling queue: grows at dispatch, shrinks as the EP issues. */
    std::uint32_t iqOccupancy = 0;
    /** Reorder-buffer occupancy (Context::rob.size()): grows at
     *  dispatch, shrinks at graduation. */
    std::uint32_t robOccupancy = 0;
    /** Unresolved conditional branches (the BrCount key):
     *  incremented at fetch, decremented at branch resolution
     *  (writeback) and when a fetch-buffer flush squashes a
     *  not-yet-dispatched branch. */
    std::uint32_t unresolvedBranches = 0;
    /**
     * Outstanding L1 load misses (the MissCount key and the
     * stall/flush gating trigger): PerceivedTracker::outstanding(),
     * incremented when a load misses the L1 at issue
     * (PerceivedTracker::open()), decremented when the fill lands and
     * the load completes (close() at writeback). Unaffected by
     * statistics resets.
     */
    std::uint32_t outstandingMisses = 0;
    /**
     * Sum of the per-cycle EP Instruction Queue occupancy samples over
     * the trailing Context::kIqWindow (64) cycles — the `split`
     * policy's EP drain-rate key. Each sample is the occupancy at the
     * end of its cycle, so the sum is constant across all of a cycle's
     * consulting stages and excludes the current cycle. The Simulator
     * records the samples lazily; the keys a policy is handed carry
     * current windows whenever a policy in force readsWindows().
     */
    std::uint32_t iqOccupancyWindow = 0;
    /**
     * Sum of the per-cycle outstanding-L1-load-miss samples over the
     * trailing kPolicyWindowCycles (64) cycles — the adaptive policy's
     * phase-detection key. Sampled like iqOccupancyWindow, so the two
     * windows always cover the same cycles.
     */
    std::uint32_t missWindow = 0;
    /**
     * True when every sample in the trailing miss window equals the
     * current outstandingMisses — i.e. the window has genuinely
     * saturated and cannot move while outstandingMisses stays frozen.
     * The sum alone cannot establish this (a mixed ring can
     * coincidentally sum to outstandingMisses * kPolicyWindowCycles
     * and still decay as it slides), so policies whose vetoStable()
     * reasons about window freezing must consult this flag, never the
     * sum. Re-evaluated whenever outstandingMisses changes and at every
     * window sync.
     */
    bool missWindowUniform = false;
    /**
     * The thread's QoS priority weight (SimConfig::threadWeight(tid)):
     * constant for the simulation's lifetime, >= 1, consumed by the
     * Weighted policies and the fairness metrics. 1 on uniform
     * machines.
     */
    std::uint32_t weight = 1;

    /** Occupancy of everything fetched but not yet issued. */
    std::uint32_t
    frontEndOccupancy() const
    {
        return fetchBufOccupancy + apQueueOccupancy + iqOccupancy;
    }

    /** Field-wise equality (the live-key oracle). */
    bool operator==(const ThreadState &) const = default;
};

/**
 * Decides which threads fetch this cycle. fetchOrder() is called once
 * per cycle; the Simulator walks the returned priority order, skips
 * ineligible threads, and fetches the first fetchThreadsPerCycle
 * eligible ones.
 */
class FetchPolicy
{
  public:
    virtual ~FetchPolicy() = default;

    /** Registry name ("icount", ...), for labels and error messages. */
    virtual std::string_view name() const = 0;

    /**
     * Emit every thread id, highest fetch priority first, into @p out
     * (cleared first). @p threads is indexed by tid.
     */
    virtual void fetchOrder(const std::vector<ThreadState> &threads,
                            std::vector<ThreadId> &out) = 0;

    /**
     * Gating veto: may thread @p t fetch at all this cycle? Consulted
     * by the Simulator for every thread before the ranked walk hands
     * out I-cache ports; a vetoed thread neither fetches nor consumes
     * a port (ordering policies rank it, but the walk skips it — with
     * ties broken by rotation position, that is equivalent to
     * excluding it before ranking). Must be a pure function of @p t.
     * Default: never veto.
     */
    virtual bool
    mayFetch(const ThreadState &t) const
    {
        (void)t;
        return true;
    }

    /**
     * Squash request: should the Simulator flush thread @p t's
     * not-yet-dispatched fetch buffer this cycle? Consulted at the
     * start of the fetch stage, before ordering; on true the Simulator
     * returns the buffered instructions to the front of the thread's
     * stream for later re-fetch (Simulator::flushFetchBuffer) so their
     * dispatch slots go to other threads. Must be a pure function of
     * @p t. Default: never flush.
     */
    virtual bool
    shouldFlush(const ThreadState &t) const
    {
        (void)t;
        return false;
    }

    /**
     * Is the mayFetch() verdict for @p t guaranteed to hold for as
     * long as the thread's *non-window* observable state (occupancies,
     * outstandingMisses) stays frozen? The idle fast-forward engine
     * (Simulator::trySkipIdle) may only treat a vetoed thread as
     * dormant when its veto is stable: trailing windows keep evolving
     * through an idle span, so a verdict that reads them can flip
     * mid-span even though the machine does nothing. A policy whose
     * mayFetch() ignores the window fields returns true
     * unconditionally (the default); the adaptive policy returns true
     * only once the miss window is uniformly frozen
     * (ThreadState::missWindowUniform — the sum test is insufficient).
     * Must be a pure function of @p t.
     */
    virtual bool
    vetoStable(const ThreadState &t) const
    {
        (void)t;
        return true;
    }

    /**
     * Does this policy read the trailing-window keys
     * (ThreadState::iqOccupancyWindow, ::missWindow,
     * ::missWindowUniform)? The Simulator samples the windows lazily,
     * and brings every context's up to date each cycle only while a
     * policy in force answers true. Default: false.
     */
    virtual bool readsWindows() const { return false; }

    /** Advance per-cycle state (rotations); called once per cycle. */
    virtual void endCycle() {}

    /**
     * Advance per-cycle state by @p n cycles at once; must leave the
     * policy in exactly the state n endCycle() calls would (the idle
     * fast-forward engine's byte-identity contract). The default
     * matches the default endCycle(): no per-cycle state, no-op.
     */
    virtual void skipCycles(std::uint64_t n) { (void)n; }

    /** Serialize private per-cycle state (rotations). Policies are
     *  otherwise stateless, so the default writes nothing. */
    virtual void save(ByteWriter &w) const { (void)w; }

    /** Restore state saved by save(). */
    virtual void restore(ByteReader &r) { (void)r; }
};

/**
 * Decides the thread visit order of the shared back-end stages:
 * dispatch, and issue per unit. Each order is computed once per cycle,
 * the issue orders before the issue stage and the dispatch order after
 * it, each from the live keys of that moment.
 */
class ArbitrationPolicy
{
  public:
    virtual ~ArbitrationPolicy() = default;

    /** Registry name ("round-robin", ...). */
    virtual std::string_view name() const = 0;

    /** Visit order for this cycle's dispatch stage (into @p out). */
    virtual void dispatchOrder(const std::vector<ThreadState> &threads,
                               std::vector<ThreadId> &out) = 0;

    /**
     * Visit order for @p unit's issue this cycle (into @p out). The
     * Simulator reuses this exact order for the unused-slot
     * classification of the same cycle.
     */
    virtual void issueOrder(Unit unit,
                            const std::vector<ThreadState> &threads,
                            std::vector<ThreadId> &out) = 0;

    /** Does this policy read the trailing-window keys? (See
     *  FetchPolicy::readsWindows.) Default: false. */
    virtual bool readsWindows() const { return false; }

    /** Advance per-cycle state (rotations); called once per cycle. */
    virtual void endCycle() {}

    /** Advance per-cycle state by @p n cycles at once; must equal n
     *  endCycle() calls byte for byte (see FetchPolicy::skipCycles). */
    virtual void skipCycles(std::uint64_t n) { (void)n; }

    /** Serialize private per-cycle state (rotations). */
    virtual void save(ByteWriter &w) const { (void)w; }

    /** Restore state saved by save(). */
    virtual void restore(ByteReader &r) { (void)r; }
};

/** Build the fetch policy selected by @p cfg.fetchPolicy. */
std::unique_ptr<FetchPolicy> makeFetchPolicy(const SimConfig &cfg);

/** Build the arbitration policy selected by @p cfg.issuePolicy. */
std::unique_ptr<ArbitrationPolicy> makeArbitrationPolicy(const SimConfig &cfg);

} // namespace mtdae

#endif // MTDAE_POLICY_POLICY_HH
