#include "common/config.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <type_traits>

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

/** Contexts, widths, and unit, port, MSHR and bank counts. */
constexpr std::uint64_t kMaxCount = 1024;
/** Per-thread queue entries: the default ROB scaled for a
 *  kMaxLatency L2 (scaledForLatency). */
constexpr std::uint64_t kMaxEntries = 65536;
/** Cache sizes in bytes (16 MiB). */
constexpr std::uint64_t kMaxCacheBytes = 1 << 24;

using C = SimConfig;

/**
 * The knob table, in serializeConfig() order. The ranges bound what a
 * knob allocates (a per-thread queue, a register file, a cache array)
 * and keep every latency sum and product inside 32 bits;
 * docs/ARCHITECTURE.md's knob table lists them.
 */
constexpr Knob kKnobs[] = {
    // Twice the widest golden's 130 contexts.
    {"threads", "numThreads", &C::numThreads, 1, 256},
    {"decoupled", "decoupled", &C::decoupled},
    {"ap-units", "apUnits", &C::apUnits, 1, kMaxCount},
    {"ep-units", "epUnits", &C::epUnits, 1, kMaxCount},
    {"ap-latency", "apLatency", &C::apLatency, 1, kMaxLatency},
    {"ep-latency", "epLatency", &C::epLatency, 1, kMaxLatency},
    {"fetch-threads", "fetchThreadsPerCycle",
     &C::fetchThreadsPerCycle, 1, kMaxCount},
    {"fetch-width", "fetchWidth", &C::fetchWidth, 1, kMaxCount},
    {"fetch-buffer", "fetchBufferSize", &C::fetchBufferSize, 1, kMaxEntries},
    {"dispatch-width", "dispatchWidth", &C::dispatchWidth, 1, kMaxCount},
    {"fetch-policy", "fetchPolicy", &C::fetchPolicy},
    {"issue-policy", "issuePolicy", &C::issuePolicy},
    {"thread-weights", "threadWeights", &C::threadWeights, 1, UINT32_MAX},
    {"adaptive-threshold", "adaptiveMissThreshold",
     &C::adaptiveMissThreshold, 1, UINT32_MAX},
    {"max-branches", "maxUnresolvedBranches",
     &C::maxUnresolvedBranches, 1, kMaxCount},
    {"redirect-penalty", "redirectPenalty",
     &C::redirectPenalty, 0, kMaxLatency},
    {"bht-entries", "bhtEntries", &C::bhtEntries, 1, 1 << 20, true},
    {"predictor", "predictor", &C::predictor},
    {"gshare-bits", "gshareHistoryBits", &C::gshareHistoryBits, 1, 32},
    {"iq-entries", "iqEntries", &C::iqEntries, 1, kMaxEntries},
    {"apq-entries", "apQueueEntries", &C::apQueueEntries, 1, kMaxEntries},
    {"saq-entries", "saqEntries", &C::saqEntries, 1, kMaxEntries},
    {"rob-entries", "robEntries", &C::robEntries, 1, kMaxEntries},
    // Rename headroom above the architectural registers, and a 16-bit
    // PhysReg index short of its kNoPhysReg sentinel.
    {"ap-regs", "apPhysRegs", &C::apPhysRegs, C::kArchIntRegs + 1, kNoPhysReg},
    {"ep-regs", "epPhysRegs", &C::epPhysRegs, C::kArchFpRegs + 1, kNoPhysReg},
    {"graduate-width", "graduateWidth", &C::graduateWidth, 1, kMaxCount},
    {"l1-bytes", "l1Bytes", &C::l1Bytes, 1, kMaxCacheBytes},
    {"l1-line", "l1LineBytes", &C::l1LineBytes, 1, 4096, true},
    {"l1-ports", "l1Ports", &C::l1Ports, 1, kMaxCount},
    {"mshrs", "mshrs", &C::mshrs, 1, kMaxCount},
    {"l1-hit-latency", "l1HitLatency", &C::l1HitLatency, 0, kMaxLatency},
    {"l2-latency", "l2Latency", &C::l2Latency, 0, kMaxLatency},
    {"bus-bytes", "busBytesPerCycle", &C::busBytesPerCycle, 1, 4096},
    {"perfect-l2", "perfectL2", &C::perfectL2},
    {"l2-size", "l2Bytes", &C::l2Bytes, 1, kMaxCacheBytes},
    {"l2-assoc", "l2Assoc", &C::l2Assoc, 1, kMaxCount},
    {"l2-ports", "l2Ports", &C::l2Ports, 1, kMaxCount},
    {"l2-mshrs", "l2Mshrs", &C::l2Mshrs, 1, kMaxCount},
    {"dram-banks", "dramBanks", &C::dramBanks, 1, kMaxCount},
    {"dram-row-bytes", "dramRowBytes", &C::dramRowBytes, 1, 1 << 20},
    {"dram-cas", "dramCas", &C::dramCas, 1, kMaxLatency},
    {"dram-ras", "dramRas", &C::dramRas, 1, kMaxLatency},
    {"dram-precharge", "dramPrecharge", &C::dramPrecharge, 0, kMaxLatency},
    {"dram-bus-cycles", "dramBusCycles", &C::dramBusCycles, 1, kMaxLatency},
    {"seed", "seed", &C::seed, 0, UINT64_MAX},
    {"warmup", "warmupInsts", &C::warmupInsts, 0, UINT64_MAX},
    {.key = "cycle-skip", .member = "cycleSkip", .field = &C::cycleSkip,
     .fingerprinted = false},
};

} // namespace

std::span<const Knob>
knobs()
{
    return kKnobs;
}

const Knob *
findKnob(std::string_view key)
{
    const Knob *k = std::ranges::find(kKnobs, key, &Knob::key);
    return k == std::ranges::end(kKnobs) ? nullptr : k;
}

std::string
Knob::check(const SimConfig &cfg) const
{
    std::string error;
    const auto in_range = [&](std::uint64_t v, const char *what) {
        if (v < min || v > max || (pow2 && !std::has_single_bit(v)))
            error = detail::concat("bad value '", v, "' for --", key, ": ",
                                   member, what,
                                   pow2 ? " a power of two" : "", " in ",
                                   min, "..", max);
        return error.empty();
    };
    std::visit(
        [&](auto f) {
            const auto &v = cfg.*f;
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, std::vector<std::uint32_t>>)
                for (const std::uint32_t entry : v)
                    if (!in_range(entry, " entries must be"))
                        return;
            if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>)
                in_range(v, " must be");
        },
        field);
    return error;
}

const char *
predictorName(SimConfig::PredictorKind k)
{
    return k == C::PredictorKind::Gshare ? "gshare" : "bimodal";
}

void
SimConfig::validate() const
{
    for (const Knob &k : kKnobs)
        if (std::string error = k.check(*this); !error.empty())
            throw ConfigError(error);
    requirePolicySeam(fetchPolicy, true);
    requirePolicySeam(issuePolicy, false);
    if (l1Bytes % l1LineBytes != 0)
        throw ConfigError("l1Bytes must be a multiple of the line size");
    if ((l1Bytes / l1LineBytes) & (l1Bytes / l1LineBytes - 1))
        throw ConfigError(
            "L1 line count must be a power of two (direct-mapped)");
    if (l2Bytes % (l1LineBytes * l2Assoc) != 0)
        throw ConfigError(
            "l2Bytes must be a multiple of l1LineBytes * l2Assoc");
    const std::uint32_t l2_sets = l2Bytes / (l1LineBytes * l2Assoc);
    if (l2_sets & (l2_sets - 1))
        throw ConfigError("L2 set count must be a power of two");
    if (dramRowBytes < l1LineBytes || dramRowBytes % l1LineBytes != 0)
        throw ConfigError("dramRowBytes must be a multiple of the line size");
}

} // namespace mtdae
