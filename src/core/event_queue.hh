/**
 * @file
 * The completion calendar: every issued instruction's writeback event,
 * bucketed by the cycle it is due.
 */

#ifndef MTDAE_CORE_EVENT_QUEUE_HH
#define MTDAE_CORE_EVENT_QUEUE_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace mtdae {

struct DynInst;

/** An issued instruction's completion, due at cycle @c at. */
struct Event
{
    Cycle at;
    ThreadId tid;
    DynInst *inst;
};

/**
 * Pending completion events in kHorizon per-cycle buckets, indexed by
 * at mod kHorizon. Each bucket is a singly linked list, in push order,
 * threaded through one node pool with a free list, so memory follows
 * the events in flight and a push allocates only when the pool grows.
 * A bitmap marks the non-empty buckets. An event kHorizon or more
 * cycles ahead shares a bucket with nearer ones and waits there until
 * its own cycle.
 *
 * The order of same-cycle completions decides no simulated result, so
 * drain() fires a cycle's events in push order, and forEach() followed
 * by re-pushing in its order rebuilds that order exactly.
 *
 * Contract: every event is pushed for a cycle after the last one
 * drained, and drain() is called, in increasing cycle order, at every
 * cycle at which an event is due (cycles with nothing due may be
 * skipped). Then no event is ever before the cycle queried.
 */
class EventQueue
{
  public:
    static constexpr std::size_t kHorizon = 1024;

    std::size_t size() const { return size_; }

    void
    push(const Event &ev)
    {
        std::uint32_t i;
        if (free_ != kNil) {
            i = free_;
            free_ = nodes_[i].next;
            nodes_[i].ev = ev;
        } else {
            i = std::uint32_t(nodes_.size());
            nodes_.push_back({ev, kNil});
        }
        append(ev.at % kHorizon, i);
        ++size_;
    }

    /** True when an event is due at @p now. */
    bool
    due(Cycle now) const
    {
        const std::size_t b = now % kHorizon;
        if (!occupied(b))
            return false;
        for (std::uint32_t i = buckets_[b].head; i != kNil;
             i = nodes_[i].next)
            if (nodes_[i].ev.at <= now)
                return true;
        return false;
    }

    /** The exact cycle of the earliest event, kNoCycle when none. */
    Cycle
    earliest(Cycle now) const
    {
        // In cycle order from now, the first bucket holding an event of
        // this lap holds the earliest. With none, every event is a lap
        // or more ahead, and the earliest is their minimum.
        Cycle best = kNoCycle;
        visitFrom(now, [&](std::size_t b) {
            for (std::uint32_t i = buckets_[b].head; i != kNil;
                 i = nodes_[i].next) {
                const Cycle at = nodes_[i].ev.at;
                if (at < now + kHorizon) {
                    best = at;
                    return true;
                }
                if (at < best)
                    best = at;
            }
            return false;
        });
        return best;
    }

    /**
     * Fire @p fire(const Event &) on every event due at @p now, in push
     * order, and remove them. Events of a later lap stay, in order.
     */
    template <typename Fire>
    void
    drain(Cycle now, Fire &&fire)
    {
        const std::size_t b = now % kHorizon;
        if (!occupied(b))
            return;
        std::uint32_t i = buckets_[b].head;
        buckets_[b] = Bucket{};
        occupied_[b / 64] &= ~bit(b);
        while (i != kNil) {
            const std::uint32_t next = nodes_[i].next;
            if (nodes_[i].ev.at <= now) {
                const Event ev = nodes_[i].ev;
                nodes_[i].next = free_;
                free_ = i;
                --size_;
                fire(ev);
            } else {
                append(b, i);
            }
            i = next;
        }
    }

    /** Call @p f(const Event &) on every event, bucket by bucket in
     *  cycle order from @p now, each bucket in push order. */
    template <typename F>
    void
    forEach(Cycle now, F &&f) const
    {
        visitFrom(now, [&](std::size_t b) {
            for (std::uint32_t i = buckets_[b].head; i != kNil;
                 i = nodes_[i].next)
                f(nodes_[i].ev);
            return false;
        });
    }

    void
    clear()
    {
        nodes_.clear();
        free_ = kNil;
        buckets_.fill(Bucket{});
        occupied_.fill(0);
        size_ = 0;
    }

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t(0);

    struct Node
    {
        Event ev;
        std::uint32_t next;
    };

    struct Bucket
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    static std::uint64_t
    bit(std::size_t b)
    {
        return std::uint64_t(1) << (b % 64);
    }

    bool occupied(std::size_t b) const { return occupied_[b / 64] & bit(b); }

    /** The first non-empty bucket at or after @p b, kHorizon if none. */
    std::size_t
    nextOccupied(std::size_t b) const
    {
        std::size_t w = b / 64;
        if (w >= occupied_.size())
            return kHorizon;
        std::uint64_t bits = occupied_[w] & (~std::uint64_t(0) << (b % 64));
        while (bits == 0) {
            if (++w == occupied_.size())
                return kHorizon;
            bits = occupied_[w];
        }
        return w * 64 + std::size_t(std::countr_zero(bits));
    }

    /** Call @p visit(bucket) on each non-empty bucket, in cycle order
     *  from @p now, until it returns true. */
    template <typename Visit>
    void
    visitFrom(Cycle now, Visit &&visit) const
    {
        const std::size_t start = now % kHorizon;
        for (std::size_t b = nextOccupied(start); b < kHorizon;
             b = nextOccupied(b + 1))
            if (visit(b))
                return;
        for (std::size_t b = nextOccupied(0); b < start;
             b = nextOccupied(b + 1))
            if (visit(b))
                return;
    }

    void
    append(std::size_t b, std::uint32_t i)
    {
        nodes_[i].next = kNil;
        Bucket &bk = buckets_[b];
        if (bk.tail == kNil) {
            bk.head = i;
            occupied_[b / 64] |= bit(b);
        } else {
            nodes_[bk.tail].next = i;
        }
        bk.tail = i;
    }

    std::vector<Node> nodes_;
    std::uint32_t free_ = kNil;
    std::array<Bucket, kHorizon> buckets_{};
    std::array<std::uint64_t, kHorizon / 64> occupied_{};
    std::size_t size_ = 0;
};

} // namespace mtdae

#endif // MTDAE_CORE_EVENT_QUEUE_HH
