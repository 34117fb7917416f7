#include "policy/policy.hh"

#include <algorithm>
#include <string>

#include "common/log.hh"
#include "common/serialize.hh"

namespace mtdae {

bool
rankedBefore(const Ranking &r, const std::vector<ThreadState> &threads,
             ThreadId a, ThreadId b)
{
    const ThreadState &ta = threads[a];
    const ThreadState &tb = threads[b];
    std::uint64_t ka = rankKey(r.key, ta);
    std::uint64_t kb = rankKey(r.key, tb);
    if (r.weighted) {
        // ka / wa < kb / wb as ka * wb < kb * wa: both factors fit u32,
        // so the u64 products cannot overflow. Weights of all ones
        // reduce to the unweighted comparison.
        ka *= tb.weight;
        kb *= ta.weight;
    }
    if (ka != kb)
        return ka < kb;
    // Ties in rotation order: a's position is (a - base) mod n.
    const auto n = ThreadId(threads.size());
    const ThreadId pa = a >= r.base ? a - r.base : a + n - r.base;
    const ThreadId pb = b >= r.base ? b - r.base : b + n - r.base;
    return pa < pb;
}

void
rankThreads(const Ranking &r, const std::vector<ThreadState> &threads,
            std::vector<ThreadId> &out)
{
    const auto n = ThreadId(threads.size());
    out.resize(n);
    for (ThreadId pos = 0; pos < n; ++pos)
        out[pos] = r.base + pos < n ? r.base + pos : r.base + pos - n;
    if (r.key != RankKey::None)
        std::sort(out.begin(), out.end(), [&](ThreadId a, ThreadId b) {
            return rankedBefore(r, threads, a, b);
        });
}

void
RankedWalk::fixKeyed(const std::vector<ThreadState> &threads,
                     const ThreadSet &universe)
{
    const auto members = [&](std::size_t w) { return universe.word(w); };
    if (!r_.weighted) {
        if (buckets_.empty()) {
            buckets_.reserve(kBuckets);
            for (std::uint32_t k = 0; k < kBuckets; ++k)
                buckets_.emplace_back(n_);
            bucketOf_.assign(n_, kBuckets);
        }
        // A thread stays in the bucket of its key at the last fix that
        // saw it; one outside this universe may linger in a stale one,
        // harmlessly, since every walk reads the buckets through a live
        // set within the universe.
        const bool narrow = withKey(r_.key, [&](auto key) {
            ThreadSet::Cursor c(n_, 0, members);
            for (ThreadId t; (t = c.next(members)) != kNoThread;) {
                const std::uint32_t k = key(threads[t]);
                if (k >= kBuckets)
                    return false;
                if (bucketOf_[t] != k) {
                    if (bucketOf_[t] != kBuckets)
                        buckets_[bucketOf_[t]].erase(t);
                    buckets_[k].insert(t);
                    bucketOf_[t] = k;
                }
                keyMask_ |= std::uint64_t(1) << k;
            }
            return true;
        });
        if (narrow) {
            mode_ = Mode::Buckets;
            return;
        }
        keyMask_ = 0;
    }
    mode_ = Mode::Sorted;
    sorted_.clear();
    ThreadSet::Cursor c(n_, 0, members);
    for (ThreadId t; (t = c.next(members)) != kNoThread;)
        sorted_.push_back(t);
    std::sort(sorted_.begin(), sorted_.end(), [&](ThreadId a, ThreadId b) {
        return rankedBefore(r_, threads, a, b);
    });
}

void
Rotation::save(ByteWriter &w) const
{
    w.u32(base_);
}

void
Rotation::restore(ByteReader &r)
{
    const std::uint32_t base = r.u32();
    if (base >= n_)
        throw SnapshotError("policy rotation base " + std::to_string(base) +
                            " is not a thread of a " + std::to_string(n_) +
                            "-thread machine");
    base_ = base;
}

namespace {

/** The ranking keys of one standard PolicyKind, per seam. */
struct PolicyKeys
{
    RankKey fetch;  ///< FetchPolicy key.
    RankKey arb;    ///< ArbitrationPolicy key (dispatch and both units).
};

/**
 * Every standard policy is "rotation, optionally ranked by one
 * ThreadState key", so the implementations are a key table rather
 * than a class hierarchy. Novel policies (per-unit, gating, adaptive,
 * weighted) subclass the interfaces in policy.hh directly.
 */
PolicyKeys
keysFor(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Icount:
        // Back-end ICOUNT counts everything between fetch and issue,
        // not just the fetch buffer: prioritise the thread clogging
        // the shared stages least.
        return {RankKey::FetchBuf, RankKey::FrontEnd};
      case PolicyKind::RoundRobin:
        return {RankKey::None, RankKey::None};
      case PolicyKind::BrCount:
        return {RankKey::Branches, RankKey::Branches};
      case PolicyKind::MissCount:
        return {RankKey::Misses, RankKey::Misses};
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
        : FetchPolicy(nthreads), kind_(kind), key_(keysFor(kind).fetch)
    {}

    std::string_view name() const override { return policyName(kind_); }

    Ranking
    fetchRanking(const std::vector<ThreadState> &) const override
    {
        return {rotationBase(), key_};
    }

  private:
    PolicyKind kind_;
    RankKey key_;
};

class KeyedArbitrationPolicy final : public ArbitrationPolicy
{
  public:
    KeyedArbitrationPolicy(PolicyKind kind, std::uint32_t nthreads)
        : ArbitrationPolicy(nthreads), kind_(kind), key_(keysFor(kind).arb)
    {}

    std::string_view name() const override { return policyName(kind_); }

    Ranking
    dispatchRanking(const std::vector<ThreadState> &) const override
    {
        return {rotationBase(), key_};
    }

    Ranking
    issueRanking(Unit, const std::vector<ThreadState> &) const override
    {
        // The standard policies rank both units (and dispatch) the
        // same way; per-unit specialisation stays open through the
        // interface's Unit parameter.
        return {rotationBase(), key_};
    }

  private:
    PolicyKind kind_;
    RankKey key_;
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
        : FetchPolicy(nthreads), kind_(kind)
    {
        MTDAE_ASSERT(kind == PolicyKind::Stall ||
                         kind == PolicyKind::Flush,
                     "GatingFetchPolicy built from a non-gating kind");
    }

    std::string_view name() const override { return policyName(kind_); }

    Ranking
    fetchRanking(const std::vector<ThreadState> &) const override
    {
        return {rotationBase(), RankKey::FetchBuf};
    }

    bool
    mayFetch(const ThreadState &t) const override
    {
        return t.outstandingMisses == 0;
    }

    bool flushes() const override { return kind_ == PolicyKind::Flush; }

    bool
    shouldFlush(const ThreadState &t) const override
    {
        return kind_ == PolicyKind::Flush && t.outstandingMisses > 0;
    }

  private:
    PolicyKind kind_;
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
    using ArbitrationPolicy::ArbitrationPolicy;

    std::string_view
    name() const override
    {
        return policyName(PolicyKind::Split);
    }

    Ranking
    dispatchRanking(const std::vector<ThreadState> &) const override
    {
        return {rotationBase(), RankKey::FrontEnd};
    }

    Ranking
    issueRanking(Unit unit, const std::vector<ThreadState> &) const override
    {
        return {rotationBase(),
                unit == Unit::AP ? RankKey::Misses : RankKey::IqWindow};
    }

    bool readsWindows() const override { return true; }
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
        : FetchPolicy(nthreads), threshold_(threshold)
    {}

    std::string_view
    name() const override
    {
        return policyName(PolicyKind::Adaptive);
    }

    Ranking
    fetchRanking(const std::vector<ThreadState> &threads) const override
    {
        const bool memory_phase =
            std::any_of(threads.begin(), threads.end(),
                        [](const ThreadState &t) { return t.missWindow; });
        return {rotationBase(),
                memory_phase ? RankKey::FetchBuf : RankKey::None};
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

  private:
    std::uint32_t threshold_;
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
    using FetchPolicy::FetchPolicy;

    std::string_view
    name() const override
    {
        return policyName(PolicyKind::Weighted);
    }

    Ranking
    fetchRanking(const std::vector<ThreadState> &) const override
    {
        return {rotationBase(), RankKey::FetchBuf, true};
    }
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
    using ArbitrationPolicy::ArbitrationPolicy;

    std::string_view
    name() const override
    {
        return policyName(PolicyKind::Weighted);
    }

    Ranking
    dispatchRanking(const std::vector<ThreadState> &) const override
    {
        return {rotationBase(), RankKey::FrontEnd, true};
    }

    Ranking
    issueRanking(Unit, const std::vector<ThreadState> &) const override
    {
        return {rotationBase(), RankKey::FrontEnd, true};
    }
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
