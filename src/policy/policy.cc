#include "policy/policy.hh"

#include <algorithm>
#include <iterator>
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
Rotation::restore(ByteReader &r, Cycle now)
{
    const std::uint32_t base = r.u32();
    if (base != now % n_)
        throw SnapshotError("policy rotation base " + std::to_string(base) +
                            " is out of phase with cycle " +
                            std::to_string(now) + " on a " +
                            std::to_string(n_) + "-thread machine");
    base_ = base;
}

namespace {

/**
 * The policy table: one row per PolicyKind, in enum order, which is
 * also the registry order of allPolicies() and of each seam's list
 * (the goldens pin the ablate-policy grid in that order). It is
 * docs/POLICIES.md's reference table as code: FetchPolicy and
 * ArbitrationPolicy read their row, and a new policy is a PolicyKind
 * value and a row. Every key ranks fewest first, ties in rotation
 * order.
 */
constexpr PolicyRow kPolicies[] = {
    // The paper's ICOUNT fetch: fewest fetched, undispatched
    // instructions first. Back-end ICOUNT counts everything between
    // fetch and issue, not just the fetch buffer: prioritise the
    // thread clogging the shared stages least.
    {.kind = PolicyKind::Icount, .name = "icount", .fetch = true,
     .issue = true, .fetchKey = RankKey::FetchBuf,
     .dispatchKey = RankKey::FrontEnd, .apKey = RankKey::FrontEnd,
     .epKey = RankKey::FrontEnd},
    // Pure rotation: the paper's dispatch and issue.
    {.kind = PolicyKind::RoundRobin, .name = "round-robin", .fetch = true,
     .issue = true},
    {.kind = PolicyKind::BrCount, .name = "brcount", .fetch = true,
     .issue = true, .fetchKey = RankKey::Branches,
     .dispatchKey = RankKey::Branches, .apKey = RankKey::Branches,
     .epKey = RankKey::Branches},
    {.kind = PolicyKind::MissCount, .name = "misscount", .fetch = true,
     .issue = true, .fetchKey = RankKey::Misses,
     .dispatchKey = RankKey::Misses, .apKey = RankKey::Misses,
     .epKey = RankKey::Misses},
    // The STALL / FLUSH fetch-gating schemes: ICOUNT ordering, but a
    // thread with an outstanding L1 load miss may not fetch at all.
    // FLUSH additionally asks the Simulator to squash the gated
    // thread's not-yet-dispatched fetch buffer, handing its dispatch
    // slots to the other threads; the squashed instructions are
    // replayed once the miss resolves. On the decoupled machine this
    // gates the *AP's* runahead on miss pressure while the EP keeps
    // draining its Instruction Queue: the gating never touches
    // already-dispatched work.
    {.kind = PolicyKind::Stall, .name = "stall", .fetch = true,
     .fetchKey = RankKey::FetchBuf, .gate = FetchGate::Stall},
    {.kind = PolicyKind::Flush, .name = "flush", .fetch = true,
     .fetchKey = RankKey::FetchBuf, .gate = FetchGate::Flush},
    // Per-unit arbitration exploiting the decoupled AP/EP split: the
    // AP, the unit that *generates* miss traffic, visits threads with
    // the fewest outstanding L1 load misses first (don't pile more
    // runahead onto a thread already waiting on memory), while the EP,
    // the unit that *drains* the decoupling queues, visits threads by
    // trailing 64-cycle IQ occupancy, fewest first (reward threads
    // that keep their IQ drained; a thread whose IQ has been backed up
    // all window long is EP-bound and yields). Dispatch uses the
    // front-end ICOUNT key, which balances the shared rename
    // bandwidth.
    {.kind = PolicyKind::Split, .name = "split", .issue = true,
     .dispatchKey = RankKey::FrontEnd, .apKey = RankKey::Misses,
     .epKey = RankKey::IqWindow},
    // The phase-reactive fetch policy: both its gating and its ranking
    // switch on the trailing outstanding-miss window. A thread is
    // vetoed (STALL-style, never flushed) only while it has an
    // outstanding L1 load miss AND its miss window has reached
    // threshold * kPolicyWindowCycles, i.e. it has averaged at least
    // `threshold` outstanding misses over the whole window: a single
    // cold miss in an otherwise-hitting phase never gates, sustained
    // miss pressure does. While every thread's miss window is zero
    // (decoupling hides everything) the ranking is pure rotation; the
    // moment any window is non-zero it takes the ICOUNT key, which
    // balances the front end under contention. The veto is unstable
    // while a gateable thread's window is still converging
    // (FetchPolicy::vetoStable): the idle fast-forward engine steps
    // those cycles instead of skipping them, which keeps --cycle-skip
    // byte-identical.
    {.kind = PolicyKind::Adaptive, .name = "adaptive", .fetch = true,
     .fetchKey = RankKey::FetchBuf, .gate = FetchGate::Adaptive},
    // ICOUNT with each thread's key divided by its priority weight
    // (exactly, via cross-multiplication): the fetch-buffer occupancy
    // at fetch, the front-end occupancy at dispatch and both issue
    // units. A weight-4 foreground thread gets a fetch port as long as
    // it holds fewer than 4x the buffered instructions of a weight-1
    // background thread, and may clog the shared stages proportionally
    // more before yielding its turn; uniform weights reduce to plain
    // icount. Pure ordering, no gating.
    {.kind = PolicyKind::Weighted, .name = "weighted", .fetch = true,
     .issue = true, .fetchKey = RankKey::FetchBuf,
     .dispatchKey = RankKey::FrontEnd, .apKey = RankKey::FrontEnd,
     .epKey = RankKey::FrontEnd, .weighted = true},
};

static_assert(
    [] {
        for (std::size_t i = 0; i < std::size(kPolicies); ++i)
            if (std::size_t(kPolicies[i].kind) != i)
                return false;
        return true;
    }(),
    "the policy table has one row per PolicyKind, in enum order");

const PolicyRow &
rowOf(PolicyKind k)
{
    MTDAE_ASSERT(std::size_t(k) < std::size(kPolicies), "unknown PolicyKind ",
                 int(k));
    return kPolicies[std::size_t(k)];
}

/** The kinds of the rows @p keep admits, in table order. */
template <typename Keep>
std::vector<PolicyKind>
kindsWhere(Keep keep)
{
    std::vector<PolicyKind> kinds;
    for (const PolicyRow &row : kPolicies)
        if (keep(row))
            kinds.push_back(row.kind);
    return kinds;
}

} // namespace

const char *
policyName(PolicyKind k)
{
    return rowOf(k).name;
}

bool
parsePolicy(const std::string &s, PolicyKind &out)
{
    for (const PolicyRow &row : kPolicies) {
        if (s == row.name) {
            out = row.kind;
            return true;
        }
    }
    return false;
}

const std::vector<PolicyKind> &
allPolicies()
{
    static const std::vector<PolicyKind> kinds =
        kindsWhere([](const PolicyRow &) { return true; });
    return kinds;
}

const std::vector<PolicyKind> &
fetchPolicies()
{
    static const std::vector<PolicyKind> kinds =
        kindsWhere([](const PolicyRow &row) { return row.fetch; });
    return kinds;
}

const std::vector<PolicyKind> &
issuePolicies()
{
    static const std::vector<PolicyKind> kinds =
        kindsWhere([](const PolicyRow &row) { return row.issue; });
    return kinds;
}

bool
policyIsFetch(PolicyKind k)
{
    return rowOf(k).fetch;
}

bool
policyIsIssue(PolicyKind k)
{
    return rowOf(k).issue;
}

void
requirePolicySeam(PolicyKind k, bool fetch)
{
    if (fetch ? policyIsFetch(k) : policyIsIssue(k))
        return;
    std::string valid;
    for (const PolicyKind v : fetch ? fetchPolicies() : issuePolicies()) {
        if (!valid.empty())
            valid += ", ";
        valid += policyName(v);
    }
    throw ConfigError("'" + std::string(policyName(k)) + "' is not a " +
                      (fetch ? "fetch" : "dispatch/issue") +
                      " policy (valid: " + valid + ")");
}

FetchPolicy::FetchPolicy(const SimConfig &cfg)
    : row_((requirePolicySeam(cfg.fetchPolicy, true), rowOf(cfg.fetchPolicy))),
      threshold_(cfg.adaptiveMissThreshold),
      rotation_(cfg.numThreads)
{}

ArbitrationPolicy::ArbitrationPolicy(const SimConfig &cfg)
    : row_((requirePolicySeam(cfg.issuePolicy, false),
            rowOf(cfg.issuePolicy))),
      rotation_(cfg.numThreads)
{}

} // namespace mtdae
