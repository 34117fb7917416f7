/**
 * @file
 * Per-stage wall-clock profiling of the simulator hot loop.
 *
 * Profiling is off until Simulator::setProfiling(true) — the only
 * disabled-path cost is one predictable branch per step().
 *
 * The accounting invariant: every nanosecond of a profiled step() lands
 * in exactly one stage bucket, so the buckets sum to totalNs exactly
 * (tests/test_profile.cc asserts this). Fixing each cycle's policy
 * rankings (the issue, dispatch and fetch RankedWalk::fix calls) is
 * marked apart from the stages that walk them and credited to
 * Stage::Snapshot, whose name predates the live policy keys. A keyless
 * ranking fixes nothing, so under round-robin arbitration the bucket
 * holds little beyond the clock reads that delimit it.
 *
 * Next to the stage buckets, the profile counts the outcome of every
 * idle-skip probe of the run loop (SkipProbe): why a cycle was stepped
 * rather than fast-forwarded.
 *
 * The profile is wall-clock measurement state, not simulated state: it
 * is excluded from checkpoints (snapshot.cc) and from every byte-
 * identity contract.
 */

#ifndef MTDAE_CORE_PROFILE_HH
#define MTDAE_CORE_PROFILE_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace mtdae {

/** One bucket per pipeline stage of Simulator::step(). */
enum class Stage : std::uint8_t {
    Complete,  ///< memory beginCycle + completion-event drain
    Issue,     ///< unit issue on both clusters + slot accounting
    Dispatch,  ///< rename/dispatch from the fetch buffers
    Fetch,     ///< flush checks + fetch walk + predictor
    Graduate,  ///< in-order retirement from the ROBs
    Snapshot,  ///< fixing the issue, dispatch and fetch rankings
    Other,     ///< policy endCycle, the per-cycle window sync of a
               ///< policy that reads the windows, loop overhead
    Skipped,   ///< fast-forwarded quiescent spans (trySkipIdle)
};

inline constexpr std::size_t kNumStages = 8;

/** Stable lowercase stage name (CLI/JSON/bench output). */
inline const char *
stageName(Stage s)
{
    switch (s) {
    case Stage::Complete: return "complete";
    case Stage::Issue: return "issue";
    case Stage::Dispatch: return "dispatch";
    case Stage::Fetch: return "fetch";
    case Stage::Graduate: return "graduate";
    case Stage::Snapshot: return "snapshot";
    case Stage::Other: return "other";
    case Stage::Skipped: return "skipped";
    }
    return "?";
}

/**
 * Outcome of one idle-skip probe (Simulator::trySkipIdle), made once
 * per run-loop iteration while cycle skip is on. Every outcome but
 * Skipped means the cycle was stepped; the blocking ones name the
 * first quiescence condition that failed, in the order checked.
 */
enum class SkipProbe : std::uint8_t {
    NotDue,         ///< a graduation in the last two cycles
    CompletionDue,  ///< a completion event due this cycle
    Graduable,      ///< a ROB head that would graduate
    Issuable,       ///< a unit-queue head that would issue
    FrontEnd,       ///< a fetch buffer to flush or to dispatch from
    UnstableVeto,   ///< a fetch veto that reads the moving windows
    Fetchable,      ///< a thread that would fetch
    ShortSpan,      ///< the next wake less than two cycles away
    Skipped,        ///< a quiescent span fast-forwarded
};

inline constexpr std::size_t kNumSkipProbes = 9;

/** Stable lowercase outcome name (CLI/JSON output). */
inline const char *
skipProbeName(SkipProbe p)
{
    switch (p) {
    case SkipProbe::NotDue: return "not-due";
    case SkipProbe::CompletionDue: return "completion-due";
    case SkipProbe::Graduable: return "graduable";
    case SkipProbe::Issuable: return "issuable";
    case SkipProbe::FrontEnd: return "front-end";
    case SkipProbe::UnstableVeto: return "unstable-veto";
    case SkipProbe::Fetchable: return "fetchable";
    case SkipProbe::ShortSpan: return "short-span";
    case SkipProbe::Skipped: return "skipped";
    }
    return "?";
}

/**
 * Accumulated per-stage wall time for one run. Cleared by
 * Simulator::resetStats(), so after run() it covers exactly the
 * measure phase.
 */
struct StageProfile {
    std::array<std::uint64_t, kNumStages> ns{};  ///< per-stage wall ns
    std::uint64_t totalNs = 0;  ///< sum of ns[] (the whole stepped loop)
    std::uint64_t cycles = 0;   ///< profiled cycles
    /** Idle-skip probes by outcome (indexed by SkipProbe). */
    std::array<std::uint64_t, kNumSkipProbes> skipProbes{};
    bool enabled = false;       ///< was profiling on for this run?

    void
    reset()
    {
        ns.fill(0);
        totalNs = 0;
        cycles = 0;
        skipProbes.fill(0);
    }

    /** Add @p o's buckets and counts (summing a sweep's profiles). */
    void
    add(const StageProfile &o)
    {
        for (std::size_t s = 0; s < kNumStages; ++s)
            ns[s] += o.ns[s];
        totalNs += o.totalNs;
        cycles += o.cycles;
        for (std::size_t p = 0; p < kNumSkipProbes; ++p)
            skipProbes[p] += o.skipProbes[p];
    }

    std::uint64_t
    operator[](Stage s) const
    {
        return ns[static_cast<std::size_t>(s)];
    }
};

} // namespace mtdae

#endif // MTDAE_CORE_PROFILE_HH
