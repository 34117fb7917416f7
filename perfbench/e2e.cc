/**
 * @file
 * End-to-end program of the benchmark: runs one workload's grid through
 * SweepSpec and JobRunner::run, with tracing and profiling off, for a
 * fixed span of host time.
 *
 *   perfbench_e2e --workload=NAME --seed=N --check-seed=N --seconds=S
 *                 --source-dir=DIR
 *
 * Phases: repetition 0 at --check-seed, whose rows are checked against
 * the recorded digests (it also warms the host caches and heap); then
 * repetitions 1, 2, ... at --seed until --seconds of measuring have
 * passed (at least three). Each repetition is followed by five set-up
 * samples (build the grid, compile its kernels, construct every job's
 * trace sources and Simulator, run nothing) and then by four samples of
 * the host-pace probe, so every repetition and its set-up samples lie
 * between two groups of probe samples.
 *
 * Output, one record per line (parsed by perfbench/run.py):
 *   REP <rep> <wall seconds> <measured insts> <cycles incl. skipped> <jobs>
 *   ROW <rep> <simulated fields of one job>      (common.hh resultRow)
 *   SETUP <rep> <seconds>
 *   PROBE <rep> <seconds>
 *   RSS_KB <peak resident set of this process>
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <fstream>

#include "common.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

const char *const kUsage =
    "perfbench_e2e --workload=NAME --seed=N --check-seed=N --seconds=S "
    "--source-dir=DIR";

/**
 * Peak resident set of this process in KiB: VmHWM, which starts afresh
 * at exec. (getrusage's ru_maxrss would carry over the peak of the
 * process that spawned this one.)
 */
long
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    long kb = 0;
    while (status >> key)
        if (key == "VmHWM:" && status >> kb)
            return kb;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

/** Host time from nothing to the first simulated cycle of every job. */
double
setupOnce(const Workload &wl, std::uint64_t seed, const std::string &dir)
{
    const auto t0 = Clock::now();
    const mtdae::SweepSpec spec = wl.build(seed, dir);
    for (const mtdae::SimJob &job : spec.jobs()) {
        const mtdae::Simulator sim(
            job.cfg, job.sources->make(job.cfg.numThreads, job.cfg.seed));
        (void)sim;
    }
    return secondsSince(t0);
}

/** Probe samples taken after each repetition. */
constexpr int kProbes = 4;

/** Keeps the probe's result alive. */
volatile std::uint64_t probeSink;

/**
 * One sample of the host's pace: seconds for 400k accesses of a fixed
 * toy model of an 8-way, 64 KiB-of-tags cache with LRU replacement and
 * a 2-bit branch predictor, about 11 ms on an uncontended core. Its
 * code never changes, so its time moves only with the host. Other
 * tenants of a shared host slow it when they slow the simulator (its
 * caches and tables contend the same way), mostly by less, which lets
 * run.py cancel much of that slowdown out (benchlib.paced).
 */
double
probeOnce()
{
    struct Way
    {
        std::uint64_t tag = 0;
        std::uint32_t used = 0;
        bool valid = false;
    };
    static std::vector<Way> ways(512 * 8);
    static std::vector<std::uint8_t> counters(1 << 14);

    const auto t0 = Clock::now();
    std::uint64_t x = 3, pc = 0, hits = 0, mispredicts = 0;
    for (std::uint32_t i = 0; i < 400000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t addr = (x & 0xfffff) * ((i & 7) ? 1 : 64);
        Way *set = &ways[((addr >> 6) & 511) * 8];
        const std::uint64_t tag = addr >> 15;
        int hit = -1;
        for (int w = 0; w < 8; ++w)
            if (set[w].valid && set[w].tag == tag) {
                hit = w;
                break;
            }
        if (hit >= 0) {
            ++hits;
            set[hit].used = i;
        } else {
            int victim = 0;
            for (int w = 1; w < 8; ++w)
                if (set[w].used < set[victim].used)
                    victim = w;
            set[victim] = Way{tag, i, true};
        }
        pc = (pc + 4 + (x & 12)) & 0xffff;
        std::uint8_t &c = counters[pc >> 2];
        const bool taken = (x >> 20) & ((pc & 64) ? 1 : 3);
        mispredicts += (c >= 2) != taken;
        c = static_cast<std::uint8_t>(taken ? std::min(3, c + 1)
                                            : std::max(0, c - 1));
    }
    probeSink = hits + mispredicts;
    return secondsSince(t0);
}

/** Build and run the grid once; print its REP and ROW records. */
double
runRep(const Workload &wl, int rep, std::uint64_t seed,
       const std::string &dir)
{
    const auto t0 = Clock::now();
    const mtdae::SweepSpec spec = wl.build(seed, dir);
    const std::vector<mtdae::RunResult> results =
        mtdae::JobRunner(kWorkers, wl.warmStart).run(spec);
    const double wall = secondsSince(t0);

    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    std::vector<std::string> labels;
    for (std::size_t i = 0; i < results.size(); ++i) {
        insts += results[i].insts;
        cycles += results[i].cycles;
        labels.push_back(spec.jobs()[i].label);
    }
    std::printf("REP %d %.9f %llu %llu %zu\n", rep, wall,
                static_cast<unsigned long long>(insts),
                static_cast<unsigned long long>(cycles), results.size());
    printRows(rep, labels, results);
    std::fflush(stdout);
    return wall;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> flags;
    if (!parseFlags(argc, argv,
                    {"workload", "seed", "check-seed", "seconds",
                     "source-dir"},
                    kUsage, flags))
        return 2;
    const Workload *wl = findWorkload(flags["workload"]);
    if (!wl) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     flags["workload"].c_str());
        return 2;
    }
    const std::uint64_t seed = std::strtoull(flags["seed"].c_str(), 0, 10);
    const std::uint64_t check_seed =
        std::strtoull(flags["check-seed"].c_str(), 0, 10);
    const double seconds = std::strtod(flags["seconds"].c_str(), 0);
    const std::string &dir = flags["source-dir"];

    std::fprintf(stderr, "perfbench_e2e: %s is %s --seed=%llu\n", wl->name,
                 wl->cli, static_cast<unsigned long long>(seed));
    try {
        const auto probe = [](int rep) {
            for (int k = 0; k < kProbes; ++k)
                std::printf("PROBE %d %.9f\n", rep, probeOnce());
        };
        runRep(*wl, 0, check_seed, dir);
        probe(0);

        // Stop before a repetition that would overrun the budget.
        const auto t0 = Clock::now();
        double last = 0.0;
        for (int rep = 1; rep <= 3 || secondsSince(t0) + last < seconds;
             ++rep) {
            last = runRep(*wl, rep, seed, dir);
            for (int k = 0; k < 5; ++k)
                std::printf("SETUP %d %.9f\n", rep,
                            setupOnce(*wl, seed, dir));
            probe(rep);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
        return 1;
    }

    std::printf("RSS_KB %ld\n", peakRssKb());
    return 0;
}
