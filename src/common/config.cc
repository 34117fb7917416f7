#include "common/config.hh"

#include <algorithm>
#include <utility>

#include "common/log.hh"

namespace mtdae {

const char *
policyName(PolicyKind k)
{
    switch (k) {
      case PolicyKind::Icount:
        return "icount";
      case PolicyKind::RoundRobin:
        return "round-robin";
      case PolicyKind::BrCount:
        return "brcount";
      case PolicyKind::MissCount:
        return "misscount";
      case PolicyKind::Stall:
        return "stall";
      case PolicyKind::Flush:
        return "flush";
      case PolicyKind::Split:
        return "split";
      case PolicyKind::Adaptive:
        return "adaptive";
      case PolicyKind::Weighted:
        return "weighted";
    }
    MTDAE_PANIC("unreachable PolicyKind");
}

bool
parsePolicy(const std::string &s, PolicyKind &out)
{
    for (const PolicyKind k : allPolicies()) {
        if (s == policyName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

const std::vector<PolicyKind> &
allPolicies()
{
    static const std::vector<PolicyKind> kinds = {
        PolicyKind::Icount,
        PolicyKind::RoundRobin,
        PolicyKind::BrCount,
        PolicyKind::MissCount,
        PolicyKind::Stall,
        PolicyKind::Flush,
        PolicyKind::Split,
        PolicyKind::Adaptive,
        PolicyKind::Weighted,
    };
    return kinds;
}

const std::vector<PolicyKind> &
fetchPolicies()
{
    static const std::vector<PolicyKind> kinds = {
        PolicyKind::Icount,
        PolicyKind::RoundRobin,
        PolicyKind::BrCount,
        PolicyKind::MissCount,
        PolicyKind::Stall,
        PolicyKind::Flush,
        PolicyKind::Adaptive,
        PolicyKind::Weighted,
    };
    return kinds;
}

const std::vector<PolicyKind> &
issuePolicies()
{
    static const std::vector<PolicyKind> kinds = {
        PolicyKind::Icount,
        PolicyKind::RoundRobin,
        PolicyKind::BrCount,
        PolicyKind::MissCount,
        PolicyKind::Split,
        PolicyKind::Weighted,
    };
    return kinds;
}

bool
policyIsFetch(PolicyKind k)
{
    return k != PolicyKind::Split;
}

bool
policyIsIssue(PolicyKind k)
{
    return k != PolicyKind::Stall && k != PolicyKind::Flush &&
           k != PolicyKind::Adaptive;
}

SimConfig
SimConfig::scaledForLatency(std::uint32_t l2_latency) const
{
    SimConfig c = *this;
    c.l2Latency = l2_latency;
    const std::uint32_t factor = std::max(1u, l2_latency / 16u);
    if (factor == 1)
        return c;
    c.iqEntries *= factor;
    c.apQueueEntries *= factor;
    c.saqEntries *= factor;
    c.robEntries *= factor;
    c.fetchBufferSize *= factor;
    // The lockup-free miss capacity must also grow, or the MSHR count
    // (not decoupling) caps every benchmark at 16 lines per L2 latency:
    // the paper's near-flat Figure 1-d curves for the well-decoupled
    // programs are impossible otherwise. It stays bounded by what is
    // buildable, which is what separates the moderate-bandwidth programs
    // (flat) from the bandwidth-monsters like hydro2d (degraded).
    c.mshrs = std::min(c.mshrs * factor, 64u);
    // The L2's own miss capacity scales with the same reasoning (only
    // observable when the finite backend is enabled).
    c.l2Mshrs = std::min(c.l2Mshrs * factor, 32u);
    // Only the registers beyond the architectural ones buffer in-flight
    // results, so only those scale.
    c.apPhysRegs = kArchIntRegs + (apPhysRegs - kArchIntRegs) * factor;
    c.epPhysRegs = kArchFpRegs + (epPhysRegs - kArchFpRegs) * factor;
    return c;
}

namespace {

/** Reject a configuration: throw ConfigError with the joined message. */
template <typename... Args>
[[noreturn]] void
reject(Args &&...args)
{
    throw ConfigError(detail::concat(std::forward<Args>(args)...));
}

} // namespace

void
SimConfig::validate() const
{
    if (numThreads == 0)
        reject("numThreads must be >= 1");
    if (!policyIsFetch(fetchPolicy))
        reject("'", policyName(fetchPolicy),
               "' is not a fetch policy (valid: icount, "
               "round-robin, brcount, misscount, stall, flush, "
               "adaptive, weighted)");
    if (!policyIsIssue(issuePolicy))
        reject("'", policyName(issuePolicy),
               "' is not a dispatch/issue policy (valid: icount, "
               "round-robin, brcount, misscount, split, "
               "weighted)");
    for (const std::uint32_t w : threadWeights)
        if (w == 0)
            reject("thread weights must be >= 1");
    if (adaptiveMissThreshold == 0)
        reject("adaptiveMissThreshold must be >= 1");
    if (apUnits == 0 || epUnits == 0)
        reject("both units need at least one functional unit");
    if (apLatency == 0 || epLatency == 0)
        reject("functional unit latencies must be >= 1");
    if (apPhysRegs <= kArchIntRegs)
        reject("apPhysRegs must exceed the ", kArchIntRegs,
               " architectural integer registers");
    if (epPhysRegs <= kArchFpRegs)
        reject("epPhysRegs must exceed the ", kArchFpRegs,
               " architectural FP registers");
    if (iqEntries == 0 || apQueueEntries == 0 || saqEntries == 0)
        reject("queues must have at least one entry");
    if (robEntries == 0)
        reject("robEntries must be >= 1");
    if (l1LineBytes == 0 || (l1LineBytes & (l1LineBytes - 1)) != 0)
        reject("l1LineBytes must be a power of two");
    if (l1Bytes == 0 || l1Bytes % l1LineBytes != 0)
        reject("l1Bytes must be a multiple of the line size");
    if ((l1Bytes / l1LineBytes) & (l1Bytes / l1LineBytes - 1))
        reject("L1 line count must be a power of two (direct-mapped)");
    if (mshrs == 0)
        reject("a lockup-free cache needs at least one MSHR");
    if (busBytesPerCycle == 0)
        reject("busBytesPerCycle must be >= 1");
    if (fetchThreadsPerCycle == 0 || fetchWidth == 0 || dispatchWidth == 0)
        reject("front-end widths must be >= 1");
    if (l2Assoc == 0)
        reject("l2Assoc must be >= 1");
    if (l2Bytes == 0 || l2Bytes % (l1LineBytes * l2Assoc) != 0)
        reject("l2Bytes must be a multiple of l1LineBytes * l2Assoc");
    const std::uint32_t l2_sets = l2Bytes / (l1LineBytes * l2Assoc);
    if (l2_sets & (l2_sets - 1))
        reject("L2 set count must be a power of two");
    if (l2Ports == 0 || l2Mshrs == 0)
        reject("the L2 needs at least one port and one MSHR");
    if (dramBanks == 0)
        reject("dramBanks must be >= 1");
    if (dramRowBytes < l1LineBytes || dramRowBytes % l1LineBytes != 0)
        reject("dramRowBytes must be a multiple of the line size");
    if (dramCas == 0 || dramRas == 0 || dramBusCycles == 0)
        reject("DRAM CAS/RAS latencies and bus cycles must be >= 1");
    if (bhtEntries == 0 || (bhtEntries & (bhtEntries - 1)) != 0)
        reject("bhtEntries must be a power of two");
}

} // namespace mtdae
