/**
 * @file
 * The data memory hierarchy of the simulated machine: a direct-mapped,
 * write-back, write-allocate, lockup-free L1 with a fixed number of MSHRs
 * and ports, backed over a shared bus by either the paper's perfect L2
 * (never misses, fixed l2Latency) or — when SimConfig::perfectL2 is
 * false — a finite, set-associative, write-back L2 (memory/l2_cache.hh)
 * in front of a banked DRAM with row buffers (memory/dram.hh).
 *
 * Timing model (documented cycle by cycle in docs/MEMORY.md §2): an L1
 * miss costs the backend's fill latency plus L1-L2 bus queueing plus
 * the line transfer (lineBytes / busBytesPerCycle cycles); a dirty
 * eviction occupies the bus for one further line transfer. With the
 * perfect L2 the fill latency is exactly l2Latency; with the finite
 * backend it emerges from L2 ports/MSHRs/contents and DRAM timing
 * (docs/MEMORY.md §3-4).
 */

#ifndef MTDAE_MEMORY_MEMORY_SYSTEM_HH
#define MTDAE_MEMORY_MEMORY_SYSTEM_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "memory/bus.hh"
#include "memory/dram.hh"
#include "memory/l2_cache.hh"

namespace mtdae {

/** Why an access was not accepted this cycle. */
enum class MemReject : std::uint8_t {
    None,     ///< Accepted.
    NoPort,   ///< All L1 ports used this cycle.
    NoMshr,   ///< Lockup-free miss capacity exhausted.
    Conflict, ///< Line frame busy with a pending fill of another tag.
};

/**
 * Outcome of one L1 access attempt. A refused attempt changes no state
 * and no statistic, so retrying it costs only the lookup.
 */
struct MemResult
{
    bool accepted = false;  ///< False: structural reject, retry later.
    bool hit = false;       ///< Valid when accepted.
    bool merged = false;    ///< Secondary miss merged into a pending fill.
    Cycle readyAt = 0;      ///< Cycle the data is available (loads).
    MemReject reject = MemReject::None;  ///< Why it was not accepted.

    /** Accepted and missed in the L1 (primary or merged). */
    bool miss() const { return accepted && !hit; }
};

/**
 * Aggregate memory-system statistics. The miss ratios count *primary*
 * misses only; secondary misses merged into a pending MSHR fill are
 * tracked as mergedMisses (delayed hits) and excluded from the ratios,
 * following the usual lockup-free-cache accounting.
 */
struct MemStats
{
    RatioStat loadMiss;    ///< num = load misses, den = load accesses.
    RatioStat storeMiss;   ///< num = store misses, den = store accesses.
    std::uint64_t mergedMisses = 0;  ///< Secondary misses merged in MSHRs.
    std::uint64_t writebacks = 0;    ///< Dirty lines written to L2.
    /** Sum over primary misses of (fill completion - access cycle):
     *  the emergent end-to-end miss latency numerator. */
    std::uint64_t fillLatencySum = 0;

    /** Combined load+store miss ratio. */
    double
    missRatio() const
    {
        const std::uint64_t den = loadMiss.den + storeMiss.den;
        return den ? double(loadMiss.num + storeMiss.num) / den : 0.0;
    }

    /** Average L1-miss fill latency in cycles (0 without misses). */
    double
    avgFillLatency() const
    {
        const std::uint64_t misses = loadMiss.num + storeMiss.num;
        return misses ? double(fillLatencySum) / double(misses) : 0.0;
    }

    void
    reset()
    {
        loadMiss.reset();
        storeMiss.reset();
        mergedMisses = 0;
        writebacks = 0;
        fillLatencySum = 0;
    }
};

/**
 * The full data-side memory hierarchy. The core calls beginCycle() once
 * per cycle, then issues loads (at AP issue time) and stores (at
 * graduation) against the shared ports.
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const SimConfig &cfg);

    /** Start a new cycle: recycle ports and completed MSHRs. */
    void beginCycle(Cycle now);

    /** Attempt a load at cycle @p now. */
    MemResult load(Addr addr, Cycle now) { return access(addr, false, now); }

    /** Attempt a store at cycle @p now (write-allocate). */
    MemResult store(Addr addr, Cycle now) { return access(addr, true, now); }

    /**
     * Why an access to @p addr would be refused if attempted now, or
     * MemReject::None when it would be accepted; loads and stores are
     * refused alike. Side-effect free. Every access consults this
     * decision first, so the refusal rules exist once: the core
     * re-checks a waiting head through it without touching its Context.
     */
    MemReject refusal(Addr addr) const { return refusalOf(lineOf(addr)); }

    /** The L1 line holding @p addr (the address over the line size). */
    std::uint64_t lineOf(Addr addr) const { return addr >> lineBits_; }

    /**
     * True when @p line is resident or filling, so an access to it hits
     * or merges and needs no MSHR. Only an access that allocates the
     * line (a primary miss) makes it so.
     */
    bool holds(std::uint64_t line) const;

    /** True while an MSHR is free for a primary miss. MSHRs free only
     *  in beginCycle(), as fills land. */
    bool mshrFree() const { return mshrsInUse_ < mshrs_.size(); }

    /**
     * Cycle the fill pending in @p line's frame lands, whichever line it
     * brings (kNoCycle when the frame is not filling). A pending fill is
     * never cancelled, so an access to another line of the frame is
     * refused MemReject::Conflict at every cycle before this one.
     */
    Cycle
    frameFillCycle(std::uint64_t line) const
    {
        const Line &l1 = lines_[frameOf(line)];
        return l1.pendingMshr >= 0
            ? mshrs_[std::size_t(l1.pendingMshr)].readyAt : kNoCycle;
    }

    /** Number of MSHRs currently in flight. */
    std::uint32_t mshrsInUse() const { return mshrsInUse_; }

    /** Aggregate L1 statistics. */
    const MemStats &stats() const { return stats_; }

    /** L2 statistics (all-zero while the perfect L2 is in force). */
    const L2Stats &l2Stats() const { return l2_.stats(); }

    /** DRAM statistics (all-zero while the perfect L2 is in force). */
    const DramStats &dramStats() const { return dram_.stats(); }

    /** True when the paper's perfect L2 backs the L1. */
    bool perfectL2() const { return perfectL2_; }

    /** L1-L2 bus utilisation over the current statistics interval. */
    double busUtilization(Cycle now) const { return bus_.utilization(now); }

    /** DRAM data bus utilisation over the statistics interval. */
    double
    dramBusUtilization(Cycle now) const
    {
        return dram_.busUtilization(now);
    }

    /** Reset statistics (start of the measured interval). */
    void resetStats(Cycle now);

    /**
     * Earliest cycle strictly after @p now at which anything in the
     * hierarchy changes state: the next L1 MSHR fill landing
     * (nextFillAt_), an L1-L2 bus reservation expiring, and — with the
     * finite backend — the next L2 port/MSHR or DRAM bank/bus
     * reservation expiring. kNoCycle when the hierarchy is fully
     * drained. The idle fast-forward engine treats this as a
     * conservative wake source: it must never be later than the first
     * memory event the core could observe (the never-under-report
     * contract, tests/test_skip.cc) — reporting earlier only costs a
     * re-check.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Cycle the earliest in-flight L1 fill lands (kNoCycle when none):
     * the next cycle an MSHR can come free, so an access refused with
     * MemReject::NoMshr is refused again at every cycle before it. The
     * core's idle-skip engine wakes a head that waits for an MSHR here.
     */
    Cycle nextFillCycle() const { return nextFillAt_; }

    /** Serialize the entire hierarchy's mutable state. */
    void save(ByteWriter &w) const;

    /** Restore state saved by save(). */
    void restore(ByteReader &r);

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        std::int32_t pendingMshr = -1;  ///< MSHR filling this frame, or -1.
    };

    struct Mshr
    {
        bool valid = false;
        std::uint64_t lineAddr = 0;  ///< addr / lineBytes.
        Cycle readyAt = 0;
        bool makeDirty = false;      ///< A store merged into this fill.
        std::uint32_t frame = 0;     ///< Cache frame being filled.
    };

    MemResult access(Addr addr, bool is_store, Cycle now);
    /** refusal() of an access to @p line. */
    MemReject refusalOf(std::uint64_t line) const;

    std::uint32_t frameOf(std::uint64_t line) const
    {
        return static_cast<std::uint32_t>(line & frameMask_);
    }
    std::uint64_t tagOf(std::uint64_t line) const
    {
        return line >> frameBits_;
    }

    std::uint32_t lineBits_;  ///< log2 of the (power-of-two) line size
    std::uint32_t frameBits_;
    std::uint64_t frameMask_;
    std::uint32_t ports_;
    std::uint32_t l1HitLatency_;
    std::uint32_t l2Latency_;
    std::uint32_t transferCycles_;
    bool perfectL2_;

    std::vector<Line> lines_;
    std::vector<Mshr> mshrs_;
    std::uint32_t mshrsInUse_ = 0;
    std::uint32_t portsUsed_ = 0;
    Cycle currentCycle_ = 0;
    /** Earliest readyAt of any in-flight MSHR fill (kNoCycle when none):
     *  beginCycle skips the recycle scan until a fill is actually due.
     *  Derived state — recomputed on restore, never serialized. */
    Cycle nextFillAt_ = kNoCycle;

    Bus bus_;
    Dram dram_;
    L2Cache l2_;
    MemStats stats_;
};

} // namespace mtdae

#endif // MTDAE_MEMORY_MEMORY_SYSTEM_HH
