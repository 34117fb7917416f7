/**
 * @file
 * ThreadSet: a bitset over the hardware contexts of one machine, and the
 * rotation-order walk the pipeline stages visit their threads with.
 */

#ifndef MTDAE_COMMON_THREAD_SET_HH
#define MTDAE_COMMON_THREAD_SET_HH

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/types.hh"

namespace mtdae {

/**
 * A set of thread ids below a count fixed at construction, one bit per
 * thread. Up to 64 threads the bits live in one inline word; beyond,
 * in a heap array of ceil(n / 64) words allocated at construction and
 * never again. word(w) reads word w either way, so the walks below
 * serve every machine size with one code path.
 *
 * A Cursor takes the set it walks as a word function, `w -> word w`,
 * rather than as a ThreadSet, so a walk can visit an expression over
 * several sets (a ranking's key bucket within a stage set) without
 * materializing it.
 */
class ThreadSet
{
  public:
    ThreadSet() = default;

    /** The empty set over threads [0, @p nthreads). */
    explicit ThreadSet(std::uint32_t nthreads)
        : n_(nthreads),
          heap_(nthreads > 64
                    ? std::make_unique<std::uint64_t[]>(wordsFor(nthreads))
                    : nullptr),
          words_(heap_ ? heap_.get() : &inline_)
    {}

    // words_ points into the object itself up to 64 threads, so a move
    // re-aims it, and leaves the source an empty set of no threads.
    ThreadSet(ThreadSet &&o) noexcept { *this = std::move(o); }

    ThreadSet &
    operator=(ThreadSet &&o) noexcept
    {
        if (this == &o)
            return *this;
        n_ = std::exchange(o.n_, 0);
        inline_ = std::exchange(o.inline_, 0);
        heap_ = std::move(o.heap_);
        words_ = heap_ ? heap_.get() : &inline_;
        o.words_ = &o.inline_;
        return *this;
    }

    /** Words holding @p nthreads bits. */
    static constexpr std::size_t
    wordsFor(std::uint32_t nthreads)
    {
        return (std::size_t(nthreads) + 63) / 64;
    }

    /** Word @p w: threads [64w, 64w + 64). */
    std::uint64_t word(std::size_t w) const { return words_[w]; }

    bool
    contains(ThreadId t) const
    {
        assert(t < n_);
        return (word(t / 64) >> (t % 64)) & 1;
    }

    void
    insert(ThreadId t)
    {
        assert(t < n_);
        words_[t / 64] |= bit(t);
    }

    void
    erase(ThreadId t)
    {
        assert(t < n_);
        words_[t / 64] &= ~bit(t);
    }

    /** insert(@p t) when @p in, erase(@p t) otherwise. */
    void
    assign(ThreadId t, bool in)
    {
        assert(t < n_);
        std::uint64_t &w = words_[t / 64];
        w = (w & ~bit(t)) | (std::uint64_t(in) << (t % 64));
    }

    /** Make this set @p a ∪ @p b, all three over the same threads. */
    void
    assignUnion(const ThreadSet &a, const ThreadSet &b)
    {
        assert(n_ == a.n_ && n_ == b.n_);
        for (std::size_t w = 0; w < wordsFor(n_); ++w)
            words_[w] = a.words_[w] | b.words_[w];
    }

    /** True when the set has a member. */
    bool
    any() const
    {
        for (std::size_t w = 0; w < wordsFor(n_); ++w)
            if (words_[w] != 0)
                return true;
        return false;
    }

    /** Insert every thread of the machine. */
    void
    fill()
    {
        for (ThreadId t = 0; t < n_; ++t)
            insert(t);
    }

    /**
     * A walk over the members of a set in rotation order from a base:
     * [base, n), then [0, base), each once. The walk takes the set as
     * a word function, reads base's word when it starts and every other
     * word when it reaches it, so a visit may change the membership of
     * the visited thread and of any thread in a word the walk has not
     * read yet; it must not change another thread of a word already
     * read. A set within one word costs one read.
     */
    class Cursor
    {
      public:
        template <typename Word>
        Cursor(std::uint32_t n, ThreadId base, const Word &word)
            : last_(wordsFor(n) - 1),
              tail_(kAll >> (63 - (n - 1) % 64)),
              at_(base / 64),
              next_(at_ == last_ ? 0 : at_ + 1),
              left_(last_)
        {
            // Base's word splits into the threads from base, walked
            // first, and those below it, walked last.
            const std::uint64_t first =
                word(at_) & (at_ == last_ ? tail_ : kAll);
            const std::uint64_t from_base = kAll << (base % 64);
            bits_ = first & from_base;
            below_ = first & ~from_base;
            base_ = at_;
        }

        /** The next member of the set @p word describes, or kNoThread
         *  once the walk is back at its base. */
        template <typename Word>
        ThreadId
        next(const Word &word)
        {
            while (bits_ == 0) {
                if (left_ > 0) {
                    --left_;
                    at_ = next_;
                    bits_ = word(at_) & (at_ == last_ ? tail_ : kAll);
                    next_ = at_ == last_ ? 0 : at_ + 1;
                } else if (below_ != 0) {
                    at_ = base_;
                    bits_ = below_;
                    below_ = 0;
                } else {
                    return kNoThread;
                }
            }
            const auto b = ThreadId(std::countr_zero(bits_));
            bits_ &= bits_ - 1;
            return ThreadId(at_ * 64) + b;
        }

      private:
        static constexpr std::uint64_t kAll = ~std::uint64_t(0);

        std::size_t last_;        ///< Index of the last word.
        std::uint64_t tail_;      ///< Threads of the last word below n.
        std::size_t at_;          ///< Word bits_ came from.
        std::size_t next_;        ///< Next word to read.
        std::size_t left_;        ///< Words other than base's unread.
        std::size_t base_ = 0;    ///< Base's word.
        std::uint64_t bits_ = 0;  ///< Members of word at_ not yet returned.
        std::uint64_t below_ = 0; ///< Base's word's members below base.
    };

  private:
    static std::uint64_t bit(ThreadId t) { return std::uint64_t(1) << (t % 64); }

    std::uint32_t n_ = 0;
    std::uint64_t inline_ = 0;
    std::unique_ptr<std::uint64_t[]> heap_;
    std::uint64_t *words_ = &inline_;  ///< inline_ or heap_
};

} // namespace mtdae

#endif // MTDAE_COMMON_THREAD_SET_HH
