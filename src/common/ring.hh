/**
 * @file
 * Ring<T>: a fixed-capacity FIFO whose elements never move, for the
 * per-context pipeline queues (fetch buffer, ROB, unit queues, SAQ).
 */

#ifndef MTDAE_COMMON_RING_HH
#define MTDAE_COMMON_RING_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "common/log.hh"

namespace mtdae {

/**
 * A first-in first-out queue of at most capacity() elements, held in
 * one allocation made at construction. An element stays at its address
 * from push to pop, so pointers into a ring stay valid until their
 * element is popped, and indexOf() maps one back to its position in
 * O(1). Construction allocates the storage without touching it; a push
 * constructs its slot. A push onto a full ring panics.
 */
template <typename T>
class Ring
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "a pop only moves the head: no element is destroyed");
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

    template <bool Const>
    class Iter
    {
        using Owner = std::conditional_t<Const, const Ring, Ring>;
        Owner *ring_;
        std::size_t i_;

      public:
        Iter(Owner *ring, std::size_t i) : ring_(ring), i_(i) {}
        decltype(auto) operator*() const { return (*ring_)[i_]; }
        Iter &
        operator++()
        {
            ++i_;
            return *this;
        }
        bool operator==(const Iter &) const = default;
    };

  public:
    explicit Ring(std::size_t capacity)
        : slots_(static_cast<T *>(::operator new(capacity * sizeof(T)))),
          cap_(capacity)
    {
    }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return cap_; }
    bool empty() const { return size_ == 0; }

    /** Element @p i, counted from the front. */
    T &
    operator[](std::size_t i)
    {
        assert(i < size_);
        return slots_.get()[slot(i)];
    }

    /** Element @p i, counted from the front (const). */
    const T &
    operator[](std::size_t i) const
    {
        assert(i < size_);
        return slots_.get()[slot(i)];
    }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return (*this)[size_ - 1]; }
    const T &back() const { return (*this)[size_ - 1]; }

    /** Construct a new back element from @p args. */
    template <typename... Args>
    T &
    emplace_back(Args &&...args)
    {
        MTDAE_ASSERT(size_ < cap_, "push onto a full ring of ", cap_);
        T *p = ::new (slots_.get() + slot(size_))
            T{std::forward<Args>(args)...};
        ++size_;
        return *p;
    }

    void push_back(const T &v) { emplace_back(v); }

    /** Drop the front element. */
    void
    pop_front()
    {
        assert(size_ > 0);
        head_ = head_ + 1 == cap_ ? 0 : head_ + 1;
        --size_;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    /** Position, counted from the front, of the element at @p p, which
     *  must be one of this ring's elements. */
    std::size_t
    indexOf(const T *p) const
    {
        const std::uintptr_t off = reinterpret_cast<std::uintptr_t>(p) -
            reinterpret_cast<std::uintptr_t>(slots_.get());
        const std::size_t s = off / sizeof(T);
        const std::size_t i = s >= head_ ? s - head_ : s + cap_ - head_;
        MTDAE_ASSERT(off % sizeof(T) == 0 && s < cap_ && i < size_,
                     "pointer to no element of the ring");
        return i;
    }

    Iter<false> begin() { return {this, 0}; }
    Iter<false> end() { return {this, size_}; }
    Iter<true> begin() const { return {this, 0}; }
    Iter<true> end() const { return {this, size_}; }

  private:
    struct Release
    {
        void operator()(T *p) const { ::operator delete(p); }
    };

    /** Storage slot of element @p i. */
    std::size_t
    slot(std::size_t i) const
    {
        const std::size_t s = head_ + i;
        return s >= cap_ ? s - cap_ : s;
    }

    std::unique_ptr<T, Release> slots_;
    std::size_t cap_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace mtdae

#endif // MTDAE_COMMON_RING_HH
