#include "policy/policy.hh"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/log.hh"
#include "common/serialize.hh"

namespace mtdae {

namespace {

/**
 * Shared mechanics of every standard policy: a round-robin rotation
 * advanced one step per cycle, optionally refined by a per-thread key
 * with ties broken by rotation position. Because ties never depend on
 * the sort algorithm, filtering ineligible threads before or after
 * ranking yields the same relative order, which is what lets the
 * Simulator apply eligibility after the policy ran.
 *
 * Ranking is allocation-free after its first call: each scratch array
 * is sized to the thread count when first used, so a pure rotation
 * allocates nothing at all.
 */
class RotatingOrder
{
  public:
    explicit RotatingOrder(std::uint32_t nthreads) : nthreads_(nthreads) {}

    /** Fill @p out with all tids starting at the rotation base. */
    void
    rotation(std::vector<ThreadId> &out) const
    {
        out.resize(nthreads_);
        std::iota(out.begin(), out.end() - rr_, rr_);
        std::iota(out.end() - rr_, out.end(), 0u);
    }

    /**
     * Rotation refined by @p key: fewest-first, ties in rotation order
     * (the ICOUNT shape — RR-2.8 in the SMT fetch literature). Keys
     * below the bucket count (occupancies, branch and miss counts) go
     * through a counting sort over the rotation; wider keys (the
     * 64-cycle window sums) through a sort of packed key-and-position
     * words.
     */
    template <typename KeyFn>
    void
    rotationSortedBy(const std::vector<ThreadState> &threads, KeyFn key,
                     std::vector<ThreadId> &out)
    {
        rotation(out);
        if (nthreads_ == 1)
            return;
        keys_.resize(nthreads_);
        buckets_.resize(kBucketsPerThread * nthreads_);
        std::uint32_t top = 0;
        for (std::uint32_t pos = 0; pos < nthreads_; ++pos) {
            keys_[pos] = key(threads[out[pos]]);
            top = std::max(top, keys_[pos]);
        }
        if (top < buckets_.size()) {
            // Bucket starts by prefix sum, then every position lands in
            // its bucket in rotation order.
            std::fill_n(buckets_.begin(), top + 1, 0u);
            for (std::uint32_t pos = 0; pos < nthreads_; ++pos)
                ++buckets_[keys_[pos]];
            std::uint32_t start = 0;
            for (std::uint32_t k = 0; k <= top; ++k)
                start += std::exchange(buckets_[k], start);
            for (std::uint32_t pos = 0; pos < nthreads_; ++pos)
                out[buckets_[keys_[pos]]++] = tidAt(pos);
            return;
        }
        packed_.resize(nthreads_);
        for (std::uint32_t pos = 0; pos < nthreads_; ++pos)
            packed_[pos] = std::uint64_t(keys_[pos]) << 32 | pos;
        std::sort(packed_.begin(), packed_.end());
        for (std::uint32_t i = 0; i < nthreads_; ++i)
            out[i] = tidAt(std::uint32_t(packed_[i]));
    }

    /**
     * Rotation refined by @p key divided by the thread's priority
     * weight, fewest-first: a * w(b) < b * w(a) compares the exact
     * rationals key/weight without division (both factors fit u32, so
     * the u64 products cannot overflow). Ties — including every pair
     * on a uniform-weight machine with equal keys — keep rotation
     * order, so weight vectors of all ones reduce to the unweighted
     * ranking.
     */
    template <typename KeyFn>
    void
    rotationSortedWeighted(const std::vector<ThreadState> &threads,
                           KeyFn key, std::vector<ThreadId> &out)
    {
        ratios_.resize(nthreads_);
        for (std::uint32_t pos = 0; pos < nthreads_; ++pos) {
            const ThreadState &t = threads[tidAt(pos)];
            ratios_[pos] = {key(t), t.weight, pos};
        }
        std::sort(ratios_.begin(), ratios_.end(),
                  [](const Ratio &a, const Ratio &b) {
                      const std::uint64_t l = std::uint64_t(a.key) * b.weight;
                      const std::uint64_t r = std::uint64_t(b.key) * a.weight;
                      return l < r || (l == r && a.pos < b.pos);
                  });
        out.resize(nthreads_);
        for (std::uint32_t i = 0; i < nthreads_; ++i)
            out[i] = tidAt(ratios_[i].pos);
    }

    void advance() { rr_ = (rr_ + 1) % nthreads_; }

    /** Advance @p n times in O(1): n modular increments collapse. */
    void skip(std::uint64_t n) { rr_ = std::uint32_t((rr_ + n) % nthreads_); }

    /** Current rotation base (checkpointing). */
    std::uint32_t position() const { return rr_; }

    /** Overwrite the rotation base (checkpoint restore). */
    void setPosition(std::uint32_t rr) { rr_ = rr % nthreads_; }

  private:
    /** Counting-sort buckets per thread: keys below
     *  kBucketsPerThread * nthreads take the counting path. */
    static constexpr std::uint32_t kBucketsPerThread = 4;

    /** One weighted key: the rational key / weight and its position. */
    struct Ratio
    {
        std::uint32_t key;
        std::uint32_t weight;
        std::uint32_t pos;
    };

    /** Thread at rotation position @p pos (< nthreads_). */
    ThreadId
    tidAt(std::uint32_t pos) const
    {
        const std::uint32_t t = rr_ + pos;
        return t < nthreads_ ? t : t - nthreads_;
    }

    std::uint32_t nthreads_;
    std::uint32_t rr_ = 0;
    std::vector<std::uint32_t> keys_;     ///< Key per rotation position.
    std::vector<std::uint32_t> buckets_;  ///< Counting-sort bucket starts.
    std::vector<std::uint64_t> packed_;   ///< key << 32 | position.
    std::vector<Ratio> ratios_;           ///< Weighted keys.
};

/**
 * Every standard policy is "rotation, optionally sorted by one
 * ThreadState key", so the implementations are a key table rather
 * than a class hierarchy: null keys mean pure round-robin. Novel
 * policies (per-unit, gating, adaptive) subclass the interfaces in
 * policy.hh directly.
 */
using KeyFn = std::uint32_t (*)(const ThreadState &);

std::uint32_t
keyFetchBuf(const ThreadState &t)
{
    return t.fetchBufOccupancy;
}

std::uint32_t
keyFrontEnd(const ThreadState &t)
{
    // Back-end ICOUNT counts everything between fetch and issue, not
    // just the fetch buffer: prioritise the thread clogging the
    // shared stages least.
    return t.frontEndOccupancy();
}

std::uint32_t
keyBranches(const ThreadState &t)
{
    return t.unresolvedBranches;
}

std::uint32_t
keyMisses(const ThreadState &t)
{
    return t.outstandingMisses;
}

std::uint32_t
keyIqWindow(const ThreadState &t)
{
    return t.iqOccupancyWindow;
}

/** The ordering keys of one PolicyKind, per consulting seam. */
struct PolicyKeys
{
    KeyFn fetch;  ///< FetchPolicy key; null = pure rotation.
    KeyFn arb;    ///< ArbitrationPolicy key; null = pure rotation.
};

PolicyKeys
keysFor(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Icount:
        return {keyFetchBuf, keyFrontEnd};
      case PolicyKind::RoundRobin:
        return {nullptr, nullptr};
      case PolicyKind::BrCount:
        return {keyBranches, keyBranches};
      case PolicyKind::MissCount:
        return {keyMisses, keyMisses};
      case PolicyKind::Stall:
      case PolicyKind::Flush:
      case PolicyKind::Split:
      case PolicyKind::Adaptive:
      case PolicyKind::Weighted:
        break;  // gating/per-unit/adaptive/weighted have own classes
    }
    MTDAE_PANIC("keysFor() on the non-keyed policy '",
                policyName(kind), "'");
}

class KeyedFetchPolicy final : public FetchPolicy
{
  public:
    KeyedFetchPolicy(PolicyKind kind, std::uint32_t nthreads)
        : kind_(kind), key_(keysFor(kind).fetch), rot_(nthreads)
    {}

    std::string_view name() const override { return policyName(kind_); }

    void
    fetchOrder(const std::vector<ThreadState> &threads,
               std::vector<ThreadId> &out) override
    {
        if (key_)
            rot_.rotationSortedBy(threads, key_, out);
        else
            rot_.rotation(out);
    }

    void endCycle() override { rot_.advance(); }
    void skipCycles(std::uint64_t n) override { rot_.skip(n); }

    void save(ByteWriter &w) const override { w.u32(rot_.position()); }
    void restore(ByteReader &r) override { rot_.setPosition(r.u32()); }

  private:
    PolicyKind kind_;
    KeyFn key_;
    RotatingOrder rot_;
};

class KeyedArbitrationPolicy final : public ArbitrationPolicy
{
  public:
    KeyedArbitrationPolicy(PolicyKind kind, std::uint32_t nthreads)
        : kind_(kind), key_(keysFor(kind).arb), rot_(nthreads)
    {}

    std::string_view name() const override { return policyName(kind_); }

    void
    dispatchOrder(const std::vector<ThreadState> &threads,
                  std::vector<ThreadId> &out) override
    {
        order(threads, out);
    }

    void
    issueOrder(Unit unit, const std::vector<ThreadState> &threads,
               std::vector<ThreadId> &out) override
    {
        // The standard policies order both units (and dispatch) the
        // same way; per-unit specialisation stays open through the
        // interface's Unit parameter.
        (void)unit;
        order(threads, out);
    }

    void endCycle() override { rot_.advance(); }
    void skipCycles(std::uint64_t n) override { rot_.skip(n); }

    void save(ByteWriter &w) const override { w.u32(rot_.position()); }
    void restore(ByteReader &r) override { rot_.setPosition(r.u32()); }

  private:
    void
    order(const std::vector<ThreadState> &threads,
          std::vector<ThreadId> &out)
    {
        if (key_)
            rot_.rotationSortedBy(threads, key_, out);
        else
            rot_.rotation(out);
    }

    PolicyKind kind_;
    KeyFn key_;
    RotatingOrder rot_;
};

/**
 * The STALL / FLUSH fetch-gating schemes: ICOUNT ordering (rotation
 * ranked by fetch-buffer occupancy), but a thread with an
 * outstanding L1 load miss may not fetch at all. FLUSH additionally
 * asks the Simulator to squash the gated thread's not-yet-dispatched
 * fetch buffer, handing its dispatch slots to the other threads; the
 * squashed instructions are replayed once the miss resolves.
 *
 * On the decoupled machine this gates the *AP's* runahead on miss
 * pressure while the EP keeps draining its Instruction Queue — the
 * gating never touches already-dispatched work.
 */
class GatingFetchPolicy final : public FetchPolicy
{
  public:
    GatingFetchPolicy(PolicyKind kind, std::uint32_t nthreads)
        : kind_(kind), rot_(nthreads)
    {
        MTDAE_ASSERT(kind == PolicyKind::Stall ||
                         kind == PolicyKind::Flush,
                     "GatingFetchPolicy built from a non-gating kind");
    }

    std::string_view name() const override { return policyName(kind_); }

    void
    fetchOrder(const std::vector<ThreadState> &threads,
               std::vector<ThreadId> &out) override
    {
        rot_.rotationSortedBy(threads, keyFetchBuf, out);
    }

    bool
    mayFetch(const ThreadState &t) const override
    {
        return t.outstandingMisses == 0;
    }

    bool
    shouldFlush(const ThreadState &t) const override
    {
        return kind_ == PolicyKind::Flush && t.outstandingMisses > 0;
    }

    void endCycle() override { rot_.advance(); }
    void skipCycles(std::uint64_t n) override { rot_.skip(n); }

    void save(ByteWriter &w) const override { w.u32(rot_.position()); }
    void restore(ByteReader &r) override { rot_.setPosition(r.u32()); }

  private:
    PolicyKind kind_;
    RotatingOrder rot_;
};

/**
 * Per-unit arbitration exploiting the decoupled AP/EP split: the AP —
 * the unit that *generates* miss traffic — visits threads with the
 * fewest outstanding L1 load misses first (don't pile more runahead
 * onto a thread already waiting on memory), while the EP — the unit
 * that *drains* the decoupling queues — visits threads by trailing
 * 64-cycle IQ occupancy, fewest first (reward threads that keep their
 * IQ drained; a thread whose IQ has been backed up all window long is
 * EP-bound and yields). Dispatch uses the front-end ICOUNT key, which
 * balances the shared rename bandwidth.
 */
class SplitArbitrationPolicy final : public ArbitrationPolicy
{
  public:
    explicit SplitArbitrationPolicy(std::uint32_t nthreads)
        : rot_(nthreads)
    {}

    std::string_view
    name() const override
    {
        return policyName(PolicyKind::Split);
    }

    void
    dispatchOrder(const std::vector<ThreadState> &threads,
                  std::vector<ThreadId> &out) override
    {
        rot_.rotationSortedBy(threads, keyFrontEnd, out);
    }

    void
    issueOrder(Unit unit, const std::vector<ThreadState> &threads,
               std::vector<ThreadId> &out) override
    {
        if (unit == Unit::AP)
            rot_.rotationSortedBy(threads, keyMisses, out);
        else
            rot_.rotationSortedBy(threads, keyIqWindow, out);
    }

    bool readsWindows() const override { return true; }

    void endCycle() override { rot_.advance(); }
    void skipCycles(std::uint64_t n) override { rot_.skip(n); }

    void save(ByteWriter &w) const override { w.u32(rot_.position()); }
    void restore(ByteReader &r) override { rot_.setPosition(r.u32()); }

  private:
    RotatingOrder rot_;
};

/**
 * The phase-reactive fetch policy (ROADMAP item 4): both its gating
 * and its ranking switch on the trailing outstanding-miss window.
 *
 *  - Gating: a thread is vetoed (STALL-style, never flushed) only
 *    while it has an outstanding L1 load miss AND its miss window has
 *    reached threshold * kPolicyWindowCycles — i.e. it has averaged at
 *    least `threshold` outstanding misses over the whole trailing
 *    window. A single cold miss in an otherwise-hitting phase never
 *    gates; sustained miss pressure does.
 *  - Ranking: when every thread's miss window is zero (perceived
 *    memory latency near zero — decoupling is hiding everything),
 *    ranking degenerates to pure round-robin; the moment any window is
 *    non-zero the policy switches to the ICOUNT key (fetch-buffer
 *    occupancy), which balances the front end under contention.
 *
 * Both decisions are pure functions of the ThreadState snapshots, so
 * the determinism contract holds unchanged. The veto is *unstable*
 * while a gated-or-gateable thread's window is still converging
 * (vetoStable() below): the idle fast-forward engine then steps those
 * cycles instead of skipping them, which is what keeps --cycle-skip
 * byte-identical for this policy.
 */
class AdaptiveFetchPolicy final : public FetchPolicy
{
  public:
    AdaptiveFetchPolicy(std::uint32_t threshold, std::uint32_t nthreads)
        : threshold_(threshold), rot_(nthreads)
    {}

    std::string_view
    name() const override
    {
        return policyName(PolicyKind::Adaptive);
    }

    void
    fetchOrder(const std::vector<ThreadState> &threads,
               std::vector<ThreadId> &out) override
    {
        bool memory_phase = false;
        for (const ThreadState &t : threads)
            memory_phase |= t.missWindow != 0;
        if (memory_phase)
            rot_.rotationSortedBy(threads, keyFetchBuf, out);
        else
            rot_.rotation(out);
    }

    bool
    mayFetch(const ThreadState &t) const override
    {
        return t.outstandingMisses == 0 ||
               t.missWindow < threshold_ * kPolicyWindowCycles;
    }

    bool
    vetoStable(const ThreadState &t) const override
    {
        // With no outstanding miss the gate cannot engage no matter
        // where the window moves; otherwise the verdict is frozen only
        // once every window slot equals the (frozen) current value, so
        // further samples of it change nothing. A sum comparison is
        // NOT enough: a mixed ring can sum to outstanding * window and
        // still decay below the threshold as it slides.
        return t.outstandingMisses == 0 || t.missWindowUniform;
    }

    bool readsWindows() const override { return true; }

    void endCycle() override { rot_.advance(); }
    void skipCycles(std::uint64_t n) override { rot_.skip(n); }

    void save(ByteWriter &w) const override { w.u32(rot_.position()); }
    void restore(ByteReader &r) override { rot_.setPosition(r.u32()); }

  private:
    std::uint32_t threshold_;
    RotatingOrder rot_;
};

/**
 * Weighted fetch: ICOUNT with each thread's fetch-buffer occupancy
 * divided by its priority weight (exactly, via cross-multiplication).
 * A weight-4 foreground thread gets a port as long as it holds fewer
 * than 4x the buffered instructions of a weight-1 background thread;
 * uniform weights reduce to plain icount. Pure ordering — no gating.
 */
class WeightedFetchPolicy final : public FetchPolicy
{
  public:
    explicit WeightedFetchPolicy(std::uint32_t nthreads) : rot_(nthreads)
    {}

    std::string_view
    name() const override
    {
        return policyName(PolicyKind::Weighted);
    }

    void
    fetchOrder(const std::vector<ThreadState> &threads,
               std::vector<ThreadId> &out) override
    {
        rot_.rotationSortedWeighted(threads, keyFetchBuf, out);
    }

    void endCycle() override { rot_.advance(); }
    void skipCycles(std::uint64_t n) override { rot_.skip(n); }

    void save(ByteWriter &w) const override { w.u32(rot_.position()); }
    void restore(ByteReader &r) override { rot_.setPosition(r.u32()); }

  private:
    RotatingOrder rot_;
};

/**
 * Weighted dispatch/issue: back-end ICOUNT (front-end occupancy) with
 * the same weight division, on dispatch and both issue units alike. A
 * heavy thread may clog the shared stages proportionally more before
 * yielding its turn.
 */
class WeightedArbitrationPolicy final : public ArbitrationPolicy
{
  public:
    explicit WeightedArbitrationPolicy(std::uint32_t nthreads)
        : rot_(nthreads)
    {}

    std::string_view
    name() const override
    {
        return policyName(PolicyKind::Weighted);
    }

    void
    dispatchOrder(const std::vector<ThreadState> &threads,
                  std::vector<ThreadId> &out) override
    {
        rot_.rotationSortedWeighted(threads, keyFrontEnd, out);
    }

    void
    issueOrder(Unit unit, const std::vector<ThreadState> &threads,
               std::vector<ThreadId> &out) override
    {
        (void)unit;
        rot_.rotationSortedWeighted(threads, keyFrontEnd, out);
    }

    void endCycle() override { rot_.advance(); }
    void skipCycles(std::uint64_t n) override { rot_.skip(n); }

    void save(ByteWriter &w) const override { w.u32(rot_.position()); }
    void restore(ByteReader &r) override { rot_.setPosition(r.u32()); }

  private:
    RotatingOrder rot_;
};

} // namespace

std::unique_ptr<FetchPolicy>
makeFetchPolicy(const SimConfig &cfg)
{
    MTDAE_ASSERT(policyIsFetch(cfg.fetchPolicy),
                 "'", policyName(cfg.fetchPolicy),
                 "' is not a fetch policy (SimConfig::validate "
                 "should have rejected it)");
    if (cfg.fetchPolicy == PolicyKind::Stall ||
        cfg.fetchPolicy == PolicyKind::Flush)
        return std::make_unique<GatingFetchPolicy>(cfg.fetchPolicy,
                                                   cfg.numThreads);
    if (cfg.fetchPolicy == PolicyKind::Adaptive)
        return std::make_unique<AdaptiveFetchPolicy>(
            cfg.adaptiveMissThreshold, cfg.numThreads);
    if (cfg.fetchPolicy == PolicyKind::Weighted)
        return std::make_unique<WeightedFetchPolicy>(cfg.numThreads);
    return std::make_unique<KeyedFetchPolicy>(cfg.fetchPolicy,
                                              cfg.numThreads);
}

std::unique_ptr<ArbitrationPolicy>
makeArbitrationPolicy(const SimConfig &cfg)
{
    MTDAE_ASSERT(policyIsIssue(cfg.issuePolicy),
                 "'", policyName(cfg.issuePolicy),
                 "' is not a dispatch/issue policy (SimConfig::validate "
                 "should have rejected it)");
    if (cfg.issuePolicy == PolicyKind::Split)
        return std::make_unique<SplitArbitrationPolicy>(cfg.numThreads);
    if (cfg.issuePolicy == PolicyKind::Weighted)
        return std::make_unique<WeightedArbitrationPolicy>(
            cfg.numThreads);
    return std::make_unique<KeyedArbitrationPolicy>(cfg.issuePolicy,
                                                    cfg.numThreads);
}

} // namespace mtdae
