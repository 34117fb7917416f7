#include "common/config.hh"

#include <algorithm>
#include <utility>

#include "common/log.hh"

namespace mtdae {

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
    requirePolicySeam(fetchPolicy, true);
    requirePolicySeam(issuePolicy, false);
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
    if (graduateWidth == 0)
        reject("graduateWidth must be >= 1");
    if (fetchBufferSize == 0)
        reject("fetchBufferSize must be >= 1");
    if (maxUnresolvedBranches == 0)
        reject("maxUnresolvedBranches must be >= 1");
    if (l1LineBytes == 0 || (l1LineBytes & (l1LineBytes - 1)) != 0)
        reject("l1LineBytes must be a power of two");
    if (l1Bytes == 0 || l1Bytes % l1LineBytes != 0)
        reject("l1Bytes must be a multiple of the line size");
    if ((l1Bytes / l1LineBytes) & (l1Bytes / l1LineBytes - 1))
        reject("L1 line count must be a power of two (direct-mapped)");
    if (mshrs == 0)
        reject("a lockup-free cache needs at least one MSHR");
    if (l1Ports == 0)
        reject("l1Ports must be >= 1");
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
    if (predictor == PredictorKind::Gshare &&
        (gshareHistoryBits == 0 || gshareHistoryBits > 32))
        reject("gshareHistoryBits must be in 1..32");
}

} // namespace mtdae
