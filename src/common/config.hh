/**
 * @file
 * SimConfig: every architectural parameter of the multithreaded decoupled
 * processor, defaulting to the paper's Figure 2 machine.
 */

#ifndef MTDAE_COMMON_CONFIG_HH
#define MTDAE_COMMON_CONFIG_HH

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/types.hh"

namespace mtdae {

/**
 * Thread-arbitration policies: how the shared front end and issue logic
 * order the hardware contexts each cycle (src/policy/policy.hh). Every
 * policy is a pure function of simulation state, so swept results stay
 * byte-identical at any worker count.
 *
 * Each kind is one row of the policy table (src/policy/policy.cc): its
 * name, the seams it may serve, its ranking key per seam, and its fetch
 * gate. The functions below read that table. The first four kinds are
 * pure *ordering* policies, valid on both seams (fetch and
 * dispatch/issue). Stall and Flush are fetch *gating* policies (they
 * can veto a thread's fetch entirely, not just de-prioritise it), Split
 * is a per-unit issue policy, and Adaptive is a phase-reactive fetch
 * policy; each is valid on one seam only. Weighted consumes the
 * per-thread priority weights (SimConfig::threadWeights) on either
 * seam.
 */
enum class PolicyKind : std::uint8_t {
    Icount,      ///< Fewest buffered instructions first (the paper's
                 ///< ICOUNT fetch; occupancy-balancing arbitration).
    RoundRobin,  ///< Pure rotation, one step per cycle.
    BrCount,     ///< Fewest unresolved conditional branches first.
    MissCount,   ///< Fewest outstanding L1 load misses first.
    Stall,       ///< ICOUNT fetch, but a thread with an outstanding
                 ///< L1 load miss may not fetch at all (fetch only).
    Flush,       ///< Stall, plus the gated thread's not-yet-dispatched
                 ///< fetch buffer is squashed for replay (fetch only).
    Split,       ///< Per-unit issue: AP by outstanding misses, EP by
                 ///< windowed IQ occupancy (dispatch/issue only).
    Adaptive,    ///< Phase-switched fetch: stall-style gating only past
                 ///< the trailing-window miss threshold, pure rotation
                 ///< when the window is empty (fetch only).
    Weighted,    ///< Occupancy divided by the thread's priority weight
                 ///< (cross-multiplied, so integer-exact); valid on
                 ///< both seams.
};

/** CLI spelling of @p k ("icount", "round-robin", ...). */
const char *policyName(PolicyKind k);

/** Parse a CLI spelling; false when @p s names no policy. */
bool parsePolicy(const std::string &s, PolicyKind &out);

/** Every policy, in registry/display order. */
const std::vector<PolicyKind> &allPolicies();

/** Policies valid for SimConfig::fetchPolicy, in registry order. */
const std::vector<PolicyKind> &fetchPolicies();

/** Policies valid for SimConfig::issuePolicy, in registry order. */
const std::vector<PolicyKind> &issuePolicies();

/** True when @p k may be used as the fetch policy. */
bool policyIsFetch(PolicyKind k);

/** True when @p k may be used as the dispatch/issue policy. */
bool policyIsIssue(PolicyKind k);

/**
 * Throw ConfigError unless @p k may be used as the fetch policy
 * (@p fetch) or as the dispatch/issue policy; the message names the
 * kinds that may.
 */
void requirePolicySeam(PolicyKind k, bool fetch);

/**
 * A SimConfig that describes no buildable machine. Thrown by
 * SimConfig::validate() (and so by SweepSpec::add and the Simulator
 * constructor); `mtdae` reports it as a usage error.
 */
struct ConfigError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * Full machine configuration. Defaults reproduce the paper's Figure 2:
 * a 4+4-way (AP+EP) issue, SMT, decoupled access/execute processor.
 */
struct SimConfig
{
    // --- Threads -----------------------------------------------------
    /** Number of hardware contexts. */
    std::uint32_t numThreads = 1;

    /**
     * Decoupled mode: AP and EP streams of a thread issue in order
     * independently (slippage bounded by the queues). When false, the
     * "instruction queues are disabled": each thread issues in strict
     * program order across both units (non-decoupled baseline).
     */
    bool decoupled = true;

    // --- Issue / functional units ------------------------------------
    /** AP functional units (also the AP issue width per cycle). */
    std::uint32_t apUnits = 4;
    /** EP functional units (also the EP issue width per cycle). */
    std::uint32_t epUnits = 4;
    /** AP functional unit latency in cycles. */
    std::uint32_t apLatency = 1;
    /** EP functional unit latency in cycles. */
    std::uint32_t epLatency = 4;

    // --- Front end -----------------------------------------------------
    /** Threads that may fetch per cycle (I-cache ports). */
    std::uint32_t fetchThreadsPerCycle = 2;
    /** Max consecutive instructions fetched per thread per cycle. */
    std::uint32_t fetchWidth = 8;
    /** Fetch buffer capacity (pending-dispatch instructions) per thread. */
    std::uint32_t fetchBufferSize = 16;
    /** Total dispatch (rename) width per cycle, shared by all threads. */
    std::uint32_t dispatchWidth = 8;
    /**
     * Thread order for fetch-port arbitration. The default, Icount,
     * reproduces the paper's RR-2.8 ICOUNT scheme: candidates rotate
     * round-robin and are stably sorted by fetch-buffer occupancy.
     * Must satisfy policyIsFetch(); Stall and Flush additionally gate
     * (veto) threads with outstanding L1 load misses.
     */
    PolicyKind fetchPolicy = PolicyKind::Icount;
    /**
     * Thread visit order for the shared dispatch stage and for each
     * issue unit (the paper's machine is RoundRobin in all three).
     * Must satisfy policyIsIssue(); Split orders the two units by
     * different keys.
     */
    PolicyKind issuePolicy = PolicyKind::RoundRobin;
    /**
     * Per-thread priority weights for the QoS layer, consumed by the
     * Weighted policies and by the fairness metrics in RunResult.
     * Empty means every thread weighs 1 (uniform). A shorter list is
     * tiled across the hardware contexts (thread t weighs
     * threadWeights[t % size()]), so one vector describes any thread
     * count — e.g. {4, 1} alternates foreground latency-critical and
     * background batch contexts. Entries must be >= 1. CLI:
     * --thread-weights=4,1.
     */
    std::vector<std::uint32_t> threadWeights;
    /**
     * Adaptive fetch-policy engagement threshold, in average
     * outstanding L1 load misses over the trailing window: a thread is
     * gated (stall-style) only while it has an outstanding miss AND its
     * trailing-window miss sum has reached
     * adaptiveMissThreshold * kMissWindow (window saturated at or above
     * the threshold). CLI: --adaptive-threshold.
     */
    std::uint32_t adaptiveMissThreshold = 1;
    /** Max unresolved branches per thread (AP control speculation). */
    std::uint32_t maxUnresolvedBranches = 4;
    /** Extra cycles from branch resolution to fetch restart. */
    std::uint32_t redirectPenalty = 1;
    /** Branch history table entries (2-bit counters), per thread. */
    std::uint32_t bhtEntries = 2048;
    /** Direction predictor organisations. */
    enum class PredictorKind : std::uint8_t {
        Bimodal,  ///< The paper's PC-indexed BHT.
        Gshare,   ///< Global-history XOR-indexed alternative.
    };
    /** Direction predictor used by every context. */
    PredictorKind predictor = PredictorKind::Bimodal;
    /** Global-history length for the gshare predictor. */
    std::uint32_t gshareHistoryBits = 8;

    // --- Per-thread queues and registers --------------------------------
    /** EP Instruction Queue entries per thread (the decoupling queue). */
    std::uint32_t iqEntries = 48;
    /** AP pending-issue queue entries per thread. */
    std::uint32_t apQueueEntries = 16;
    /** Store Address Queue entries per thread. */
    std::uint32_t saqEntries = 32;
    /** Reorder buffer entries per thread. */
    std::uint32_t robEntries = 128;
    /** AP (integer) physical registers per thread. */
    std::uint32_t apPhysRegs = 64;
    /** EP (floating-point) physical registers per thread. */
    std::uint32_t epPhysRegs = 96;
    /** Graduation width per thread per cycle. */
    std::uint32_t graduateWidth = 8;

    // --- Memory hierarchy ------------------------------------------------
    /** L1 data cache size in bytes. */
    std::uint32_t l1Bytes = 64 * 1024;
    /** L1 line size in bytes. */
    std::uint32_t l1LineBytes = 32;
    /** L1 data cache ports (loads at issue + stores at graduation). */
    std::uint32_t l1Ports = 4;
    /** Outstanding misses supported by the lockup-free L1 (MSHRs). */
    std::uint32_t mshrs = 16;
    /** L1 hit latency in cycles. */
    std::uint32_t l1HitLatency = 1;
    /** L2 access (hit) latency in cycles — the paper's swept parameter. */
    std::uint32_t l2Latency = 16;
    /** L1-L2 bus width in bytes per cycle (128-bit bus). */
    std::uint32_t busBytesPerCycle = 16;

    /**
     * Perfect L2 (the paper's model): the L2 never misses and every L1
     * miss costs exactly l2Latency plus bus queueing and transfer. When
     * false, the finite L2 below backs the L1 and memory latency is
     * emergent (L2 array + DRAM row buffers + shared buses); l2Latency
     * then means the L2 *hit* latency. CLI: --perfect-l2.
     */
    bool perfectL2 = true;
    /** L2 cache size in bytes (finite backend only). */
    std::uint32_t l2Bytes = 512 * 1024;
    /** L2 associativity (ways per set). */
    std::uint32_t l2Assoc = 8;
    /** L2 ports: tag/data accesses accepted per cycle (pipelined). */
    std::uint32_t l2Ports = 2;
    /** Outstanding L2 misses (L2 MSHRs); further misses queue. */
    std::uint32_t l2Mshrs = 8;

    // --- DRAM (finite backend only) --------------------------------------
    /** Independent DRAM banks sharing one data bus. */
    std::uint32_t dramBanks = 8;
    /** DRAM row (page) size in bytes: the row-buffer locality window. */
    std::uint32_t dramRowBytes = 4096;
    /** Column access (CAS) latency in CPU cycles: row-buffer hit cost. */
    std::uint32_t dramCas = 20;
    /** Row activation (RAS-to-CAS) latency in CPU cycles. */
    std::uint32_t dramRas = 30;
    /** Precharge latency in CPU cycles, paid on a row conflict. */
    std::uint32_t dramPrecharge = 20;
    /** DRAM data bus cycles to transfer one line (shared by all banks). */
    std::uint32_t dramBusCycles = 4;

    // --- Workload-independent simulation knobs -------------------------
    /**
     * RNG seed for the whole simulation (trace generation); set from
     * the CLI with --seed. Sweeps treat the configured value as the
     * *base* seed: SweepSpec (src/harness/sweep.hh) rewrites each
     * job's copy to deriveSeed(base, job index) so every grid point
     * draws an independent, reproducible random stream.
     */
    std::uint64_t seed = 1;
    /** Instructions to graduate before statistics reset (cache warm-up). */
    std::uint64_t warmupInsts = 50000;
    /**
     * Fast-forward quiescent spans (no stage can do any work) to the
     * next wake event instead of stepping them cycle by cycle; set from
     * the CLI with --cycle-skip. An execution strategy, not a machine
     * parameter: results are byte-identical either way (the skip-vs-
     * step contract, tests/test_skip.cc), so like SimJob::profile its
     * knob is the one left out of serializeConfig() — it must not
     * perturb configFingerprint()/prefixKey() or snapshot
     * compatibility.
     */
    bool cycleSkip = true;

    /** Number of architectural integer registers (fixed by the ISA). */
    static constexpr std::uint32_t kArchIntRegs = 32;
    /** Number of architectural FP registers (fixed by the ISA). */
    static constexpr std::uint32_t kArchFpRegs = 32;

    /**
     * Return a copy with queue and register-file sizes scaled up
     * proportionally to the L2 latency, per the paper's Section 2:
     * factor max(1, l2Latency/16) applied to the IQ, SAQ, AP queue, ROB
     * and the physical registers beyond the architectural ones.
     *
     * @param l2_latency the L2 latency the machine should tolerate
     */
    SimConfig scaledForLatency(std::uint32_t l2_latency) const;

    /** Bus cycles to transfer one L1 line. */
    std::uint32_t
    lineTransferCycles() const
    {
        return (l1LineBytes + busBytesPerCycle - 1) / busBytesPerCycle;
    }

    /**
     * The priority weight of thread @p tid: threadWeights tiled across
     * the contexts, 1 everywhere when the vector is empty.
     */
    std::uint32_t
    threadWeight(std::uint32_t tid) const
    {
        return threadWeights.empty()
                   ? 1u
                   : threadWeights[tid % threadWeights.size()];
    }

    /**
     * Check every knob against its range (knobs()), then the rules
     * that span knobs: policy seams, cache and DRAM geometry.
     * @throws ConfigError naming the first inconsistent parameter
     */
    void validate() const;
};

/** CLI spelling of @p k ("bimodal", "gshare"). */
const char *predictorName(SimConfig::PredictorKind k);

/**
 * The longest latency, in cycles, a latency knob takes; also the
 * largest `--latencies` value, so the grids that scale structures,
 * DRAM timings or L2 sizes by one stay inside 32 bits.
 */
inline constexpr std::uint32_t kMaxLatency = 8192;

/**
 * One SimConfig member as the CLI, the config fingerprint and
 * SimConfig::validate() see it. knobs() declares every member once, so
 * a new member is one row there.
 */
struct Knob
{
    /** The member, by type. */
    using Field = std::variant<std::uint32_t SimConfig::*,
                               std::uint64_t SimConfig::*,
                               bool SimConfig::*, PolicyKind SimConfig::*,
                               SimConfig::PredictorKind SimConfig::*,
                               std::vector<std::uint32_t> SimConfig::*>;

    const char *key;     ///< CLI key: --<key>=<value>.
    const char *member;  ///< The member's name, for messages.
    Field field;
    /** Valid range of a number, or of each entry of a list; a bool or
     *  enum knob takes every value its parser yields. */
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    bool pow2 = false;          ///< The number must be a power of two.
    bool fingerprinted = true;  ///< Serialized by serializeConfig().

    /**
     * "" when this member of @p cfg (each entry, for a list) is in
     * range, else the message naming the flag and the member.
     */
    std::string check(const SimConfig &cfg) const;
};

/** Every SimConfig member, once, in serializeConfig() order. */
std::span<const Knob> knobs();

/** The knob whose CLI key is @p key, or null. */
const Knob *findKnob(std::string_view key);

} // namespace mtdae

#endif // MTDAE_COMMON_CONFIG_HH
