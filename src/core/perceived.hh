/**
 * @file
 * Perceived load-miss latency, the paper's latency-hiding metric: the
 * number of cycles an instruction that uses load data cannot issue —
 * while a free issue slot exists — because the load miss is outstanding.
 * Accumulated per miss and averaged over all misses (hits excluded;
 * fully-hidden misses contribute zero).
 */

#ifndef MTDAE_CORE_PERCEIVED_HH
#define MTDAE_CORE_PERCEIVED_HH

#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/serialize.hh"

namespace mtdae {

/**
 * Tracks outstanding load misses of one thread and the issue-head stall
 * cycles attributed to each.
 */
class PerceivedTracker
{
  public:
    /** Token meaning "no miss being tracked". */
    static constexpr std::uint32_t kNoToken = 0xffffffffu;

    /**
     * Begin tracking a load miss.
     * @param is_int true for integer loads, false for FP loads
     * @return token to attribute stalls with
     */
    std::uint32_t
    open(bool is_int)
    {
        std::uint32_t tok;
        if (!free_.empty()) {
            tok = free_.back();
            free_.pop_back();
        } else {
            tok = std::uint32_t(slots_.size());
            slots_.push_back({});
        }
        slots_[tok] = {0, is_int, true};
        outstanding_ += 1;
        return tok;
    }

    /**
     * Attribute @p n stall cycles to the miss behind @p token in one
     * step. Per-cycle stall attribution is order-independent (every
     * stalled issue head gets exactly one stall per unit per cycle
     * with a free slot), so the Simulator charges a head's cycles in
     * bulk when its stall class changes.
     */
    void
    stall(std::uint32_t token, std::uint64_t n = 1)
    {
        MTDAE_ASSERT(token < slots_.size() && slots_[token].active,
                     "stall on a closed perceived-latency token");
        slots_[token].stalls += n;
    }

    /** The miss completed: fold its stalls into the per-class average. */
    void
    close(std::uint32_t token)
    {
        MTDAE_ASSERT(token < slots_.size() && slots_[token].active,
                     "double close of a perceived-latency token");
        MTDAE_ASSERT(outstanding_ > 0, "outstanding-miss underflow");
        outstanding_ -= 1;
        Slot &s = slots_[token];
        s.active = false;
        if (s.isInt) {
            intStalls_ += s.stalls;
            intMisses_ += 1;
        } else {
            fpStalls_ += s.stalls;
            fpMisses_ += 1;
        }
        free_.push_back(token);
    }

    /** Accumulated stall cycles attributed to integer-load misses. */
    std::uint64_t intStalls() const { return intStalls_; }
    /** Accumulated stall cycles attributed to FP-load misses. */
    std::uint64_t fpStalls() const { return fpStalls_; }
    /** Completed integer-load misses. */
    std::uint64_t intMisses() const { return intMisses_; }
    /** Completed FP-load misses. */
    std::uint64_t fpMisses() const { return fpMisses_; }

    /** Load misses currently in flight (the misscount policy key);
     *  unaffected by resetStats(), like the open tokens themselves. */
    std::uint32_t outstanding() const { return outstanding_; }

    /** True when @p token names a miss still being tracked. */
    bool
    isOpen(std::uint32_t token) const
    {
        return token < slots_.size() && slots_[token].active;
    }

    /** Average perceived latency of integer-load misses. */
    double
    intPerceived() const
    {
        return intMisses_ ? double(intStalls_) / double(intMisses_) : 0.0;
    }

    /** Average perceived latency of FP-load misses. */
    double
    fpPerceived() const
    {
        return fpMisses_ ? double(fpStalls_) / double(fpMisses_) : 0.0;
    }

    /** Zero the accumulated statistics (open misses keep tracking). */
    void
    resetStats()
    {
        intStalls_ = fpStalls_ = 0;
        intMisses_ = fpMisses_ = 0;
    }

    /**
     * Serialize the complete tracker state. The slot array and free
     * list are written verbatim (not compacted): token values live in
     * DynInst::missToken and MSHR frames across the checkpoint, and
     * the free-list order decides which token open() hands out next.
     */
    void
    save(ByteWriter &w) const
    {
        w.u64(slots_.size());
        for (const Slot &s : slots_) {
            w.u64(s.stalls);
            w.b(s.isInt);
            w.b(s.active);
        }
        w.u64(free_.size());
        for (const std::uint32_t tok : free_)
            w.u32(tok);
        w.u32(outstanding_);
        w.u64(intStalls_);
        w.u64(fpStalls_);
        w.u64(intMisses_);
        w.u64(fpMisses_);
    }

    /**
     * Restore state saved by save().
     *
     * @throws SnapshotError when the free list names a token out of
     *         range, an open one or one twice, or when the outstanding
     *         count differs from the open slots: open() would hand out
     *         a live token again and its second close() would panic
     */
    void
    restore(ByteReader &r)
    {
        slots_.resize(r.u64());
        std::uint32_t open_slots = 0;
        for (Slot &s : slots_) {
            s.stalls = r.u64();
            s.isInt = r.b();
            s.active = r.b();
            open_slots += s.active;
        }
        free_.resize(r.u64());
        std::vector<bool> listed(slots_.size(), false);
        for (std::uint32_t &tok : free_) {
            tok = r.u32();
            if (tok >= slots_.size() || slots_[tok].active || listed[tok])
                throw SnapshotError("perceived-latency free list names a "
                                    "bad token in snapshot");
            listed[tok] = true;
        }
        outstanding_ = r.u32();
        if (outstanding_ != open_slots)
            throw SnapshotError("perceived-latency outstanding count "
                                "differs from its open tokens in "
                                "snapshot");
        intStalls_ = r.u64();
        fpStalls_ = r.u64();
        intMisses_ = r.u64();
        fpMisses_ = r.u64();
    }

  private:
    struct Slot
    {
        std::uint64_t stalls = 0;
        bool isInt = false;
        bool active = false;
    };

    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_;
    std::uint32_t outstanding_ = 0;
    std::uint64_t intStalls_ = 0;
    std::uint64_t fpStalls_ = 0;
    std::uint64_t intMisses_ = 0;
    std::uint64_t fpMisses_ = 0;
};

} // namespace mtdae

#endif // MTDAE_CORE_PERCEIVED_HH
