/**
 * @file
 * Per-thread (hardware context) state: rename map tables, physical
 * register files with scoreboards, fetch buffer, unit queues, Store
 * Address Queue and reorder buffer. The paper replicates all of these
 * per context; the issue logic, functional units and caches are shared.
 */

#ifndef MTDAE_CORE_CONTEXT_HH
#define MTDAE_CORE_CONTEXT_HH

#include <array>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "branch/predictor.hh"
#include "common/config.hh"
#include "common/log.hh"
#include "common/ring.hh"
#include "common/types.hh"
#include "core/dyn_inst.hh"
#include "core/perceived.hh"
#include "core/slot_stats.hh"
#include "isa/reg.hh"
#include "policy/policy.hh"
#include "workload/trace_source.hh"

namespace mtdae {

/** What produces the value of a physical register. */
struct Producer
{
    /** Producer category, used for issue-stall classification. */
    enum class Kind : std::uint8_t {
        None,  ///< Architectural initial value (always ready).
        Fu,    ///< A functional-unit instruction.
        Load,  ///< A load (memory).
    };

    Kind kind = Kind::None;
    /** Perceived-latency token when the producing load missed. */
    std::uint32_t missToken = PerceivedTracker::kNoToken;
};

/**
 * One renamed physical register file with free list and scoreboard.
 */
class RegFile
{
  public:
    /**
     * @param arch_regs architectural registers (initially mapped 1:1)
     * @param phys_regs total physical registers (> arch_regs)
     */
    RegFile(std::uint32_t arch_regs, std::uint32_t phys_regs);

    /** True when a rename can allocate a destination. */
    bool hasFree() const { return !freeList_.empty(); }

    /** Free physical registers remaining. */
    std::size_t freeCount() const { return freeList_.size(); }

    /** Current mapping of architectural register @p arch. */
    PhysReg map(std::uint8_t arch) const { return map_[arch]; }

    /**
     * Rename @p arch to a fresh physical register.
     * @param[out] old_phys the previous mapping (to free at graduation)
     * @return the new physical register
     */
    PhysReg rename(std::uint8_t arch, PhysReg &old_phys);

    /** Return @p r to the free list. */
    void release(PhysReg r);

    /** Scoreboard: is @p r ready? (Hot path: unchecked indexing; the
     *  register numbers are internal invariants, and the sanitizer CI
     *  job keeps the indexing honest.) */
    bool ready(PhysReg r) const { return ready_[r]; }

    /** Mark @p r ready. */
    void setReady(PhysReg r) { ready_[r] = true; }

    /** Producer record of @p r. */
    Producer &producer(PhysReg r) { return producer_[r]; }

    /** Producer record of @p r (const). */
    const Producer &producer(PhysReg r) const { return producer_[r]; }

    /** Total physical registers. */
    std::size_t size() const { return ready_.size(); }

    /** Serialize scoreboard, producers, free list and map table. */
    void save(ByteWriter &w) const;

    /** Restore state saved by save(). */
    void restore(ByteReader &r);

  private:
    std::vector<std::uint8_t> ready_;
    std::vector<Producer> producer_;
    std::vector<PhysReg> freeList_;
    std::vector<PhysReg> map_;
};

/**
 * A Store Address Queue entry: the address is deposited when the store
 * issues on the AP (address generation); younger loads forward from or
 * bypass it. The entry is released when the store graduates.
 */
struct SaqEntry
{
    DynInst *inst = nullptr;
    InstSeq seq = 0;
    bool addrValid = false;
    Addr addr = 0;
};

/**
 * How a unit-queue head uses a free issue slot (paper Figure 3), and the
 * perceived-latency token its stall is charged to.
 */
struct StallClass
{
    SlotUse reason = SlotUse::Idle;
    /** The open miss a WaitMem head waits on; kNoToken otherwise. */
    std::uint32_t token = PerceivedTracker::kNoToken;

    bool operator==(const StallClass &) const = default;
};

/**
 * A fetched instruction awaiting dispatch. The sequence number is
 * assigned at fetch (nothing is ever squashed in trace-driven mode, so
 * fetch order is program order).
 */
struct FetchedInst
{
    TraceInst ti;
    InstSeq seq = 0;
    bool mispredicted = false;
};

/**
 * All replicated per-context state.
 */
struct Context
{
    /**
     * @param id     hardware context id
     * @param cfg    machine configuration
     * @param src    the thread's trace (owned)
     */
    Context(ThreadId id, const SimConfig &cfg,
            std::unique_ptr<TraceSource> src);

    ThreadId tid;
    std::unique_ptr<TraceSource> source;

    // Front end. The pipeline queues are Rings sized from the config
    // capacity that fetch and dispatch enforce: their elements never
    // move, so the unit queues, the SAQ and the completion events hold
    // DynInst pointers into the ROB from dispatch to graduation.
    Ring<FetchedInst> fetchBuf;       ///< Fetched, pending dispatch.
    /**
     * Instructions squashed from the fetch buffer by a flush-gating
     * policy, oldest first; fetch replays them — re-running branch
     * prediction — before consuming the trace again
     * (Simulator::flushFetchBuffer / nextInst).
     */
    std::deque<TraceInst> replayQ;
    TraceInst pendingInst;            ///< One-instruction lookahead.
    bool hasPending = false;
    bool traceDone = false;
    std::uint32_t unresolvedBranches = 0;
    bool fetchBlocked = false;        ///< Gated on a mispredicted branch.
    InstSeq blockingBranchSeq = 0;
    Cycle fetchResumeAt = 0;          ///< Earliest fetch cycle after redirect.
    std::unique_ptr<BranchPredictor> predictor;

    // Rename and scoreboard.
    RegFile intRegs;                  ///< AP physical file.
    RegFile fpRegs;                   ///< EP physical file.

    // Windows.
    Ring<DynInst> rob;                ///< In-flight instructions, in order.
    Ring<DynInst *> apQ;              ///< AP pending-issue queue.
    Ring<DynInst *> iq;               ///< EP Instruction Queue (decoupling).
    Ring<SaqEntry> saq;               ///< Store Address Queue.

    /**
     * Deposited-word index over the SAQ: 8-byte-word address -> number
     * of address-valid entries writing it. Because all memory
     * instructions issue on the AP in strict per-thread program order,
     * every deposited store is older than any load that is issuing, so
     * "an older deposited store writes this word" reduces to a count
     * lookup (saqForwardsFast) instead of the linear saqForwards walk
     * — the SAQ scales to hundreds of entries at high L2 latencies.
     * Derived state: rebuilt from the SAQ on restore, never serialized.
     */
    std::unordered_map<Addr, std::uint32_t> saqWords;

    // Sequencing.
    InstSeq nextSeq = 0;              ///< Next fetch sequence number.
    InstSeq nextIssueSeq = 0;         ///< Non-decoupled program-order gate.

    // Per-thread statistics.
    PerceivedTracker perceived;
    std::uint64_t graduated = 0;
    /**
     * graduated as of the last statistics reset
     * (Simulator::resetStats): graduated - graduatedBase is the
     * thread's measure-interval instruction count, the basis of the
     * per-thread slowdown/fairness metrics in RunResult. Serialized
     * (unlike the interval-only skip counters) because it feeds result
     * rows: a warm-started run must compute the same per-thread
     * metrics as a cold one.
     */
    std::uint64_t graduatedBase = 0;

    /** Cycles in the trailing statistic windows (the split policy's
     *  EP drain-rate key and the adaptive policy's phase key;
     *  ThreadState::iqOccupancyWindow / ::missWindow). The rings hold
     *  one sample per cycle of iq.size() and perceived.outstanding()
     *  as they stood at the end of that cycle, and are filled lazily
     *  (syncWindows). */
    static constexpr std::uint32_t kIqWindow = kPolicyWindowCycles;
    std::array<std::uint32_t, kIqWindow> iqSamples{};  ///< Ring buffer.
    std::uint32_t iqSampleAt = 0;   ///< Next ring slot to overwrite.
    std::uint32_t iqWindowSum = 0;  ///< Running sum of the ring.

    /** Trailing outstanding-L1-load-miss window, same length and
     *  sampling points as the IQ window (ThreadState::missWindow). */
    std::array<std::uint32_t, kIqWindow> missSamples{};
    std::uint32_t missSampleAt = 0;
    std::uint32_t missWindowSum = 0;

    /**
     * Length of the trailing run of equal miss samples, capped at
     * kIqWindow (ThreadState::missWindowUniform): the window is uniform
     * when the run covers it and its value is the outstanding-miss
     * count. The sum alone cannot prove the window is frozen — a mixed
     * ring can coincidentally sum to outstanding * kIqWindow and still
     * decay as it slides — so the idle fast-forward stability probe
     * needs the run. Derived state: never serialized, recounted by
     * restore().
     */
    std::uint32_t missRun = kIqWindow;

    /**
     * The windows hold the samples of every cycle before this one.
     * Derived state: never serialized; a snapshot is saved with the
     * windows synced to its cycle, and restore sets it to that cycle.
     */
    Cycle windowsAt = 0;

    /**
     * Advance both trailing windows by @p n > 0 cycles in
     * O(min(n, 64)), recording n samples of the current iq.size() and
     * outstanding-miss count.
     */
    void advanceWindows(std::uint64_t n);

    /**
     * Record the samples of cycles windowsAt .. @p now - 1. Exact as
     * long as the Simulator calls it before every change to iq.size()
     * or the outstanding-miss count: the values have then held since
     * windowsAt, so they are the end-of-cycle value of every cycle
     * recorded.
     *
     * @return true when samples were recorded
     */
    bool
    syncWindows(Cycle now)
    {
        if (windowsAt == now)
            return false;
        advanceWindows(now - windowsAt);
        windowsAt = now;
        return true;
    }

    /** Register file holding registers of @p cls. */
    RegFile &file(RegClass cls)
    {
        return cls == RegClass::Int ? intRegs : fpRegs;
    }

    /** Register file holding registers of @p cls (const). */
    const RegFile &file(RegClass cls) const
    {
        return cls == RegClass::Int ? intRegs : fpRegs;
    }

    /** True when every source of @p di is ready. */
    bool operandsReady(const DynInst &di) const;

    /** True when the address sources of a store are ready. */
    bool storeAddrReady(const DynInst &di) const;

    /** True when the data source of a store is ready (graduation). */
    bool storeDataReady(const DynInst &di) const;

    /**
     * Find the first unready source of @p di and classify its producer.
     * @param[out] tok the perceived token when a missed load produces it
     * @return Producer::Kind::Fu or Load; Kind::None when all ready
     */
    Producer::Kind stallSource(const DynInst &di, std::uint32_t &tok) const;

    /**
     * Classify, from scratch, why @p unit's queue head is not issuing:
     * Idle when the queue is empty, Other when the head is gated by
     * program order (@p cfg not decoupled) or only structurally
     * blocked, else the stallSource() category and miss token. The
     * Simulator caches the result between the events that can change
     * it; this is the reference the cache is tested against.
     */
    StallClass stallClass(Unit unit, const SimConfig &cfg) const;

    /**
     * Search the SAQ for the youngest older store writing the same
     * 8-byte word as @p load_addr (reference linear walk; the issue
     * stage uses saqForwardsFast, and tests assert they agree).
     * @return true when such a store exists (forwarding)
     */
    bool saqForwards(InstSeq load_seq, Addr load_addr) const;

    /** saqForwards via the deposited-word index (see saqWords). */
    bool
    saqForwardsFast(Addr load_addr) const
    {
        return !saqWords.empty() &&
               saqWords.find(load_addr >> 3) != saqWords.end();
    }

    /** Record a store's address deposit in the word index. */
    void
    saqDeposit(Addr addr)
    {
        ++saqWords[addr >> 3];
    }

    /** Remove a graduating store's deposit from the word index. */
    void
    saqWithdraw(Addr addr)
    {
        const auto it = saqWords.find(addr >> 3);
        MTDAE_ASSERT(it != saqWords.end() && it->second > 0,
                     "SAQ word index out of sync at graduation");
        if (--it->second == 0)
            saqWords.erase(it);
    }

    /**
     * Recompute, from scratch, the keys the arbitration policies see
     * (src/policy/policy.hh). The Simulator keeps the same keys live
     * instead; this is their oracle.
     *
     * @param cfg the configuration in force (the thread's weight)
     * @param now the cycle the window keys are reported at: the rings
     *            plus the samples syncWindows(@p now) would record,
     *            summed directly rather than through the running sums
     */
    ThreadState policyState(const SimConfig &cfg, Cycle now) const;

    /**
     * Write the keys that follow the outstanding-miss count and the
     * trailing windows into @p s: outstandingMisses, iqOccupancyWindow,
     * missWindow and missWindowUniform, with the windows as of
     * windowsAt. Called after every miss open or close and every
     * window sync.
     */
    void missAndWindowKeys(ThreadState &s) const;

    /**
     * May the thread fetch at cycle @p now: not gated on a mispredicted
     * branch or a redirect, instructions remain (trace not exhausted,
     * or flushed instructions awaiting replay), fetch buffer not full.
     */
    bool
    fetchEligible(const SimConfig &cfg, Cycle now) const
    {
        return !fetchBlocked && now >= fetchResumeAt &&
               (!replayQ.empty() || !traceDone || hasPending) &&
               fetchBuf.size() < cfg.fetchBufferSize;
    }

    /**
     * Serialize the context's complete mutable state. The apQ/iq/saq
     * queues and any in-flight events reference DynInsts by pointer
     * into the ROB; they are serialized as ROB *indices*
     * (Ring::indexOf) and the pointers are rebuilt on restore.
     */
    void save(ByteWriter &w) const;

    /**
     * Restore state saved by save() onto an identically built context.
     * Throws SnapshotError on a queue count above its capacity.
     */
    void restore(ByteReader &r);
};

} // namespace mtdae

#endif // MTDAE_CORE_CONTEXT_HH
