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
 *                        accounting walks the *same* ranking the issue
 *                        stage used, so the Figure 3 attribution can
 *                        never drift from the arbitration). The Unit
 *                        parameter lets a policy order the AP and the
 *                        EP by different keys (the `split` policy).
 *
 * A policy is data: one row of the policy table (PolicyRow, kPolicies
 * in policy.cc) per PolicyKind, holding its name, the seams it may
 * serve, its key on each seam, its fetch gate and whether it divides
 * the keys by the thread weights. Both classes are concrete and final
 * and read their row.
 *
 * A policy does not order the threads itself: it describes each seam's
 * ranking as a Ranking (its rotation base, and optionally a key,
 * optionally divided by the thread's weight), and the Simulator walks
 * only the threads a stage would not pass over in that order
 * (RankedWalk). rankThreads() materializes a full order from the same
 * description; it is the reference the walks are tested against.
 *
 * Determinism contract: a policy's only state is the round-robin
 * rotation, and its rankings must be a pure function of that state and
 * of the ThreadState keys it is handed — never of wall clock,
 * allocation addresses or scheduling — and which threads a stage
 * visits, and in what order, must not depend on how the thread set is
 * split into candidates. This is what keeps every sweep byte-identical
 * at any --jobs count.
 *
 * Policies see the machine only through ThreadState: the per-context
 * keys the Simulator keeps live as the pipeline runs. They never touch
 * Context or Simulator internals.
 */

#ifndef MTDAE_POLICY_POLICY_HH
#define MTDAE_POLICY_POLICY_HH

#include <algorithm>
#include <bit>
#include <memory>
#include <string_view>
#include <vector>

#include "common/config.hh"
#include "common/thread_set.hh"
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

/** The ThreadState key a seam ranks by. */
enum class RankKey : std::uint8_t {
    None,      ///< no key: pure rotation (round-robin)
    FetchBuf,  ///< fetchBufOccupancy (the ICOUNT fetch key)
    FrontEnd,  ///< frontEndOccupancy() (back-end ICOUNT)
    Branches,  ///< unresolvedBranches (BrCount)
    Misses,    ///< outstandingMisses (MissCount)
    IqWindow,  ///< iqOccupancyWindow (split's EP key)
};

/**
 * The key table: call @p f with a function object that reads key @p k
 * of a ThreadState (0 for RankKey::None), so a loop over threads
 * switches on the key once.
 */
template <typename F>
decltype(auto)
withKey(RankKey k, F &&f)
{
    switch (k) {
      case RankKey::FetchBuf:
        return f([](const ThreadState &t) { return t.fetchBufOccupancy; });
      case RankKey::FrontEnd:
        return f([](const ThreadState &t) { return t.frontEndOccupancy(); });
      case RankKey::Branches:
        return f([](const ThreadState &t) { return t.unresolvedBranches; });
      case RankKey::Misses:
        return f([](const ThreadState &t) { return t.outstandingMisses; });
      case RankKey::IqWindow:
        return f([](const ThreadState &t) { return t.iqOccupancyWindow; });
      case RankKey::None:
        break;
    }
    return f([](const ThreadState &) { return std::uint32_t(0); });
}

/** The value of key @p k in @p t (0 for RankKey::None). */
inline std::uint32_t
rankKey(RankKey k, const ThreadState &t)
{
    return withKey(k, [&](auto key) { return key(t); });
}

/**
 * How one seam ranks the threads this cycle: fewest-key first, with
 * the key divided by the thread's weight when @p weighted (compared
 * exactly, by cross-multiplication), and ties in rotation order from
 * @p base: base, base + 1, ..., wrapping. Without a key it is the
 * rotation itself. Because ties never depend on a sort algorithm, the
 * ranking restricted to any subset of the threads is the full ranking
 * with the others removed, which is what lets the Simulator walk only
 * the threads a stage would not pass over (RankedWalk).
 */
struct Ranking
{
    ThreadId base = 0;
    RankKey key = RankKey::None;
    bool weighted = false;
};

/** Does thread @p a rank before thread @p b under @p r? @p threads
 *  is indexed by tid. */
bool rankedBefore(const Ranking &r, const std::vector<ThreadState> &threads,
                  ThreadId a, ThreadId b);

/**
 * The reference materializer: every thread id in @p r's order, into
 * @p out (resized to threads.size()). The Simulator never calls it; it
 * is the order RankedWalk must reproduce (tests/test_policy.cc).
 */
void rankThreads(const Ranking &r, const std::vector<ThreadState> &threads,
                 std::vector<ThreadId> &out);

/**
 * A ranking fixed for one or more walks over the threads of a
 * universe, with the keys read once, when fixed. A walk visits the
 * threads of a live set, given like ThreadSet::Cursor's as a word
 * function, in the fixed order; every live thread must belong to the
 * universe. A keyless ranking walks the live set from the rotation base
 * and fixes nothing. A key below 64 on every thread of the universe (an
 * occupancy, a branch or miss count) groups the universe into per-key
 * bucket sets, walked in ascending key order, each from the rotation
 * base, with empty buckets skipped through a mask. A wider key (the
 * 64-cycle window sums) or a weighted ratio sorts the universe's
 * threads. Buckets and sorted threads stay as fixed while the keys
 * move, so a walk never meets a thread twice. Allocation-free once
 * warm.
 */
class RankedWalk
{
  public:
    explicit RankedWalk(std::uint32_t nthreads) : n_(nthreads) {}

    /**
     * Fix @p r over the threads of @p universe, reading their keys in
     * @p threads now.
     */
    void
    fix(const Ranking &r, const std::vector<ThreadState> &threads,
        const ThreadSet &universe)
    {
        r_ = r;
        mode_ = Mode::Rotation;
        keyMask_ = 0;
        if (r.key != RankKey::None)
            fixKeyed(threads, universe);
    }

    /** One walk in progress over the fixed ranking (begin()). */
    class Cursor
    {
        friend class RankedWalk;

        template <typename Word>
        Cursor(const RankedWalk &walk, const Word &live)
            : set_(walk.n_, walk.r_.base,
                   walk.bucketWord(walk.firstKey(), live)),
              keys_(walk.keyMask_ & (walk.keyMask_ - 1)),
              bucket_(walk.firstKey())
        {}

        ThreadSet::Cursor set_;  ///< In the rotation or current bucket.
        std::uint64_t keys_;     ///< Buckets after the current one.
        std::uint32_t bucket_;   ///< The current bucket.
        std::size_t index_ = 0;  ///< Next sorted thread.
    };

    /** A walk from the start of the fixed order, over @p live (a word
     *  function, as next() takes). */
    template <typename Word>
    Cursor
    begin(const Word &live) const
    {
        return Cursor(*this, live);
    }

    /**
     * The next thread of the universe in the fixed order that is in
     * @p live when the walk reaches it, or kNoThread at the end. A
     * visit may change memberships as ThreadSet::Cursor allows.
     */
    template <typename Word>
    ThreadId
    next(Cursor &c, const Word &live) const
    {
        if (mode_ == Mode::Rotation)
            return c.set_.next(live);
        if (mode_ == Mode::Buckets) {
            for (;;) {
                const ThreadId t =
                    c.set_.next(bucketWord(c.bucket_, live));
                if (t != kNoThread || c.keys_ == 0)
                    return t;
                c.bucket_ = std::uint32_t(std::countr_zero(c.keys_));
                c.keys_ &= c.keys_ - 1;
                c.set_ = ThreadSet::Cursor(n_, r_.base,
                                           bucketWord(c.bucket_, live));
            }
        }
        while (c.index_ < sorted_.size()) {
            const ThreadId t = sorted_[c.index_++];
            if ((live(t / 64) >> (t % 64)) & 1)
                return t;
        }
        return kNoThread;
    }

    /**
     * Visit the first @p count threads of the fixed order over the
     * whole universe, wrapping around it as often as @p count needs
     * (the slot accounting's prefix). A keyless ranking's universe is
     * every thread: its prefix is base, base + 1, ... mod n.
     */
    template <typename Visit>
    void
    forFirst(std::uint32_t count, Visit &&visit) const
    {
        if (mode_ == Mode::Rotation) {
            for (ThreadId t = r_.base; count > 0; --count) {
                visit(t);
                if (++t == n_)
                    t = 0;
            }
            return;
        }
        const auto every = [](std::size_t) { return ~std::uint64_t(0); };
        while (count > 0) {
            Cursor c = begin(every);
            for (ThreadId t; count > 0 && (t = next(c, every)) != kNoThread;
                 --count)
                visit(t);
        }
    }

  private:
    /** The lowest key in the universe (0 when keyless or empty). */
    std::uint32_t
    firstKey() const
    {
        return keyMask_ ? std::uint32_t(std::countr_zero(keyMask_)) : 0;
    }

    /** Word function of bucket @p k's threads in @p live: all of
     *  @p live in a keyless ranking, none in a sorted one. */
    template <typename Word>
    auto
    bucketWord(std::uint32_t k, const Word &live) const
    {
        return [this, k, &live](std::size_t w) -> std::uint64_t {
            if (mode_ == Mode::Rotation)
                return live(w);
            return mode_ == Mode::Buckets ? buckets_[k].word(w) & live(w)
                                          : 0;
        };
    }

    /** Keys below this take the bucket sets. */
    static constexpr std::uint32_t kBuckets = 64;

    enum class Mode : std::uint8_t { Rotation, Buckets, Sorted };

    /** fix() for a keyed ranking. */
    void fixKeyed(const std::vector<ThreadState> &threads,
                  const ThreadSet &universe);

    std::uint32_t n_;
    Ranking r_;
    Mode mode_ = Mode::Rotation;
    std::uint64_t keyMask_ = 0;       ///< Keys of the universe.
    std::vector<ThreadSet> buckets_;  ///< Threads by key, once keyed.
    std::vector<std::uint32_t> bucketOf_;  ///< Each thread's bucket.
    std::vector<ThreadId> sorted_;    ///< The universe in order.
};

/**
 * The round-robin rotation every policy ranks over: a base thread
 * advanced one step per cycle, wrapping at the thread count. It starts
 * at 0 on cycle 0 and advances on every cycle, stepped or skipped, so
 * its base is always the cycle number mod the thread count.
 */
class Rotation
{
  public:
    explicit Rotation(std::uint32_t nthreads) : n_(nthreads) {}

    /** The thread ranked first among equal keys this cycle. */
    ThreadId base() const { return base_; }

    void
    advance()
    {
        if (++base_ == n_)
            base_ = 0;
    }

    /** Advance @p cycles times in O(1). */
    void skip(std::uint64_t cycles) { base_ = ThreadId((base_ + cycles) % n_); }

    void save(ByteWriter &w) const;

    /** Restore state saved by save() on cycle @p now; throws
     *  SnapshotError on a base other than @p now mod the thread count. */
    void restore(ByteReader &r, Cycle now);

  private:
    std::uint32_t n_;
    ThreadId base_ = 0;
};

/** A fetch policy's gate: which threads it vetoes, and which it
 *  flushes. */
enum class FetchGate : std::uint8_t {
    None,      ///< never veto
    Stall,     ///< veto a thread with an outstanding L1 load miss
    Flush,     ///< Stall, and squash the vetoed thread's fetch buffer
    Adaptive,  ///< veto past the trailing miss-window threshold, and
               ///< rank without a key while no thread has a miss window
};

/**
 * One row of the policy table (policy.cc): everything a PolicyKind
 * does. A policy ranks each seam it serves by a key (RankKey::None:
 * pure rotation), divided by the thread's weight when `weighted`; the
 * keys of a seam it may not serve stay None.
 */
struct PolicyRow
{
    PolicyKind kind;                    ///< The row's index in the table.
    const char *name;                   ///< CLI spelling ("icount", ...).
    bool fetch = false;                 ///< Valid as SimConfig::fetchPolicy.
    bool issue = false;                 ///< Valid as SimConfig::issuePolicy.
    RankKey fetchKey = RankKey::None;
    FetchGate gate = FetchGate::None;
    RankKey dispatchKey = RankKey::None;
    RankKey apKey = RankKey::None;      ///< The AP's issue key.
    RankKey epKey = RankKey::None;      ///< The EP's issue key.
    bool weighted = false;
};

/**
 * Decides which threads fetch this cycle, by the row of
 * SimConfig::fetchPolicy. fetchRanking() describes the cycle's priority
 * order; the Simulator walks the threads with room in their fetch
 * buffer in that order, skips ineligible and vetoed ones, and fetches
 * the first fetchThreadsPerCycle others.
 */
class FetchPolicy final
{
  public:
    /** Throws ConfigError when cfg.fetchPolicy is not a fetch policy. */
    explicit FetchPolicy(const SimConfig &cfg);

    /** Registry name ("icount", ...), for labels and error messages. */
    std::string_view name() const { return row_.name; }

    /**
     * This cycle's fetch ranking over the keys in @p threads (indexed
     * by tid): the row's key, which the adaptive gate drops while every
     * thread's miss window is empty.
     */
    Ranking
    fetchRanking(const std::vector<ThreadState> &threads) const
    {
        RankKey key = row_.fetchKey;
        if (row_.gate == FetchGate::Adaptive &&
            std::none_of(threads.begin(), threads.end(),
                         [](const ThreadState &t) { return t.missWindow; }))
            key = RankKey::None;
        return {rotation_.base(), key, row_.weighted};
    }

    /** Every thread id in fetchRanking()'s order, into @p out: the
     *  reference materializer (rankThreads). */
    void
    fetchOrder(const std::vector<ThreadState> &threads,
               std::vector<ThreadId> &out) const
    {
        rankThreads(fetchRanking(threads), threads, out);
    }

    /**
     * Gating veto: may thread @p t fetch at all this cycle? Consulted
     * by the Simulator for every thread the ranked walk reaches before
     * it hands out an I-cache port; a vetoed thread neither fetches nor
     * consumes a port (with ties broken by rotation position, that is
     * equivalent to excluding it before ranking). A pure function of
     * @p t.
     */
    bool
    mayFetch(const ThreadState &t) const
    {
        switch (row_.gate) {
          case FetchGate::None:
            return true;
          case FetchGate::Stall:
          case FetchGate::Flush:
            return t.outstandingMisses == 0;
          case FetchGate::Adaptive:
            // In 64 bits: past 2^26 the u32 product would wrap.
            return t.outstandingMisses == 0 ||
                   t.missWindow <
                       std::uint64_t(threshold_) * kPolicyWindowCycles;
        }
        return true;
    }

    /** Can shouldFlush() return true at all (a flush gate)? The
     *  Simulator runs the flush pass only then. */
    bool flushes() const { return row_.gate == FetchGate::Flush; }

    /**
     * Squash request: should the Simulator flush thread @p t's
     * not-yet-dispatched fetch buffer this cycle? Consulted at the
     * start of the fetch stage, before ranking; on true the Simulator
     * returns the buffered instructions to the front of the thread's
     * stream for later re-fetch (Simulator::flushFetchBuffer) so their
     * dispatch slots go to other threads. A pure function of @p t.
     */
    bool
    shouldFlush(const ThreadState &t) const
    {
        return flushes() && t.outstandingMisses > 0;
    }

    /**
     * Is the mayFetch() verdict for @p t guaranteed to hold for as
     * long as the thread's *non-window* observable state (occupancies,
     * outstandingMisses) stays frozen? The idle fast-forward engine
     * (Simulator::trySkipIdle) may only treat a vetoed thread as
     * dormant when its veto is stable: trailing windows keep evolving
     * through an idle span, so a verdict that reads them can flip
     * mid-span even though the machine does nothing. Only the adaptive
     * gate reads them. With no outstanding miss it cannot engage no
     * matter where the window moves; otherwise its verdict is frozen
     * only once every window slot equals the (frozen) current value
     * (ThreadState::missWindowUniform). A sum comparison is not
     * enough: a mixed ring can sum to outstanding * window and still
     * decay below the threshold as it slides.
     */
    bool
    vetoStable(const ThreadState &t) const
    {
        return row_.gate != FetchGate::Adaptive || t.outstandingMisses == 0 ||
               t.missWindowUniform;
    }

    /**
     * Does this policy read the trailing-window keys
     * (ThreadState::iqOccupancyWindow, ::missWindow,
     * ::missWindowUniform): an adaptive gate or a window key? The
     * Simulator samples the windows lazily, and brings every context's
     * up to date each cycle only while a policy in force answers true.
     */
    bool
    readsWindows() const
    {
        return row_.gate == FetchGate::Adaptive ||
               row_.fetchKey == RankKey::IqWindow;
    }

    /** Advance the rotation; called once per cycle. */
    void endCycle() { rotation_.advance(); }

    /** Advance the rotation by @p n cycles at once, exactly as n
     *  endCycle() calls would (the idle fast-forward engine). */
    void skipCycles(std::uint64_t n) { rotation_.skip(n); }

    /** Serialize the rotation, the policy's only state. */
    void save(ByteWriter &w) const { rotation_.save(w); }

    /** Restore state saved by save() on cycle @p now
     *  (Rotation::restore). */
    void restore(ByteReader &r, Cycle now) { rotation_.restore(r, now); }

  private:
    PolicyRow row_;
    std::uint32_t threshold_;  ///< SimConfig::adaptiveMissThreshold
    Rotation rotation_;
};

/**
 * Decides the thread visit order of the shared back-end stages,
 * dispatch and issue per unit, by the row of SimConfig::issuePolicy.
 * The Simulator fixes each ranking once per cycle, the issue rankings
 * before the issue stage and the dispatch ranking after it, each over
 * the live keys of that moment.
 */
class ArbitrationPolicy final
{
  public:
    /** Throws ConfigError when cfg.issuePolicy is not a dispatch/issue
     *  policy. */
    explicit ArbitrationPolicy(const SimConfig &cfg);

    /** Registry name ("round-robin", ...). */
    std::string_view name() const { return row_.name; }

    /** This cycle's dispatch ranking. */
    Ranking
    dispatchRanking(const std::vector<ThreadState> &) const
    {
        return {rotation_.base(), row_.dispatchKey, row_.weighted};
    }

    /**
     * This cycle's ranking for @p unit's issue. The Simulator walks
     * the same fixed ranking for the unused-slot classification of the
     * same cycle.
     */
    Ranking
    issueRanking(Unit unit, const std::vector<ThreadState> &) const
    {
        return {rotation_.base(),
                unit == Unit::AP ? row_.apKey : row_.epKey, row_.weighted};
    }

    /** Every thread id in dispatchRanking()'s order (rankThreads). */
    void
    dispatchOrder(const std::vector<ThreadState> &threads,
                  std::vector<ThreadId> &out) const
    {
        rankThreads(dispatchRanking(threads), threads, out);
    }

    /** Every thread id in issueRanking()'s order (rankThreads). */
    void
    issueOrder(Unit unit, const std::vector<ThreadState> &threads,
               std::vector<ThreadId> &out) const
    {
        rankThreads(issueRanking(unit, threads), threads, out);
    }

    /** Does this policy read the trailing-window keys: a window key
     *  on some seam? (See FetchPolicy::readsWindows.) */
    bool
    readsWindows() const
    {
        return row_.dispatchKey == RankKey::IqWindow ||
               row_.apKey == RankKey::IqWindow ||
               row_.epKey == RankKey::IqWindow;
    }

    /** Advance the rotation; called once per cycle. */
    void endCycle() { rotation_.advance(); }

    /** n endCycle() calls at once (see FetchPolicy::skipCycles). */
    void skipCycles(std::uint64_t n) { rotation_.skip(n); }

    /** Serialize the rotation, the policy's only state. */
    void save(ByteWriter &w) const { rotation_.save(w); }

    /** Restore state saved by save() on cycle @p now
     *  (Rotation::restore). */
    void restore(ByteReader &r, Cycle now) { rotation_.restore(r, now); }

  private:
    PolicyRow row_;
    Rotation rotation_;
};

/** The fetch policy selected by @p cfg.fetchPolicy. */
inline std::unique_ptr<FetchPolicy>
makeFetchPolicy(const SimConfig &cfg)
{
    return std::make_unique<FetchPolicy>(cfg);
}

/** The arbitration policy selected by @p cfg.issuePolicy. */
inline std::unique_ptr<ArbitrationPolicy>
makeArbitrationPolicy(const SimConfig &cfg)
{
    return std::make_unique<ArbitrationPolicy>(cfg);
}

} // namespace mtdae

#endif // MTDAE_POLICY_POLICY_HH
