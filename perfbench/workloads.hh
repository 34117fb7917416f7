/**
 * @file
 * The benchmark's three canonical workloads, as SweepSpec grids built
 * through the library's public sweep surface only (SweepSpec::add*).
 *
 * Each grid is the one an mtdae experiment builds for the command line
 * in Workload::cli (with --seed=<seed> appended): same configurations,
 * same job order, same per-job seed streams, so any point can be rerun
 * from the CLI and produces the same row. Budgets are sized so one
 * execution of a grid takes about 0.4-1.2 s on one worker, which gives
 * a run of the benchmark many repetitions to take a low percentile of.
 */

#ifndef MTDAE_PERFBENCH_WORKLOADS_HH
#define MTDAE_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sweep.hh"

namespace perfbench {

/**
 * JobRunner pool size of every workload (recorded in BENCHMARK.json):
 * one worker, so the numbers measure the simulator rather than the
 * host's core count.
 */
inline constexpr std::uint32_t kWorkers = 1;

/** One canonical grid and how the benchmark runs it. */
struct Workload
{
    const char *name;
    /** JobRunner warm-start: share warmup checkpoints between jobs. */
    bool warmStart;
    /** The equivalent mtdae command line, minus --seed. */
    const char *cli;
    /** Build the grid for base seed @p seed; kernels are read from
     *  @p source_dir/examples/kernels. */
    mtdae::SweepSpec (*build)(std::uint64_t seed,
                              const std::string &source_dir);
};

/** The pointer-chase footprints of idle-dram: 4x and 8x the L2. */
inline const std::vector<double> kChaseFootprints = {2.0 * 1024 * 1024,
                                                     4.0 * 1024 * 1024};

/** examples/kernels/<name>.mk under @p source_dir. */
inline std::string
kernelPath(const std::string &source_dir, const std::string &name)
{
    return source_dir + "/examples/kernels/" + name + ".mk";
}

inline std::string
decLabel(std::uint32_t n, bool dec, std::uint32_t lat)
{
    return std::to_string(n) + "T " + (dec ? "decoupled" : "non-decoupled") +
           " L2=" + std::to_string(lat);
}

/** mtdae fig4 on 1/2/4 contexts, cold. */
inline mtdae::SweepSpec
paperFig4(std::uint64_t seed, const std::string &)
{
    mtdae::SweepSpec spec;
    for (const std::uint32_t n : {1u, 2u, 4u})
        for (const bool dec : {true, false})
            for (const std::uint32_t lat : mtdae::paperLatencies()) {
                mtdae::SimConfig cfg = mtdae::paperConfig(n, dec, lat);
                cfg.warmupInsts = 20000;
                cfg.seed = seed;
                spec.addSuiteMix(cfg, 10000 * n, decLabel(n, dec, lat));
            }
    return spec;
}

/** mtdae ablate-dsl: pointer chase on the finite L2 + DRAM backend. */
inline mtdae::SweepSpec
idleDram(std::uint64_t seed, const std::string &source_dir)
{
    const std::string text =
        mtdae::dsl::readKernelFile(kernelPath(source_dir, "pointer_chase"));
    mtdae::SweepSpec spec;
    for (const double footprint : kChaseFootprints)
        for (const std::uint32_t n : {1u, 4u}) {
            mtdae::SimConfig cfg = mtdae::paperConfig(n, true, 16);
            cfg.perfectL2 = false;
            cfg.warmupInsts = 10000;
            cfg.seed = seed;
            spec.addDsl(cfg, text, {{"footprint", footprint}}, 40000 * n,
                        "pointer_chase footprint=" +
                            std::to_string(std::uint64_t(footprint) >> 20) +
                            "M " + std::to_string(n) + "T");
        }
    return spec;
}

/**
 * mtdae ablate-checkpoint at 4/16/64 contexts: per context count, three
 * measure budgets on one seed stream, so each triple shares one long
 * warmup checkpoint.
 */
inline mtdae::SweepSpec
warmSweep(std::uint64_t seed, const std::string &)
{
    mtdae::SweepSpec spec;
    std::uint64_t stream = 0;
    for (const std::uint32_t n : {4u, 16u, 64u}) {
        mtdae::SimConfig cfg = mtdae::paperConfig(n, true, 16);
        cfg.warmupInsts = 80000;
        cfg.seed = seed;
        for (const std::uint64_t m : {1u, 2u, 4u})
            spec.addSuiteMix(cfg, 250 * n * m,
                             std::to_string(n) + "T x" + std::to_string(m),
                             stream);
        ++stream;
    }
    return spec;
}

inline const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"paper-fig4", false,
         "mtdae fig4 --threads-list=1,2,4 --insts=10000 --warmup=20000 "
         "--jobs=1 --warm-start=0",
         paperFig4},
        {"idle-dram", false,
         "mtdae ablate-dsl --kernel-file=examples/kernels/pointer_chase.mk "
         "--kernel-param=footprint=2M,4M --threads-list=1,4 --latencies=16 "
         "--perfect-l2=0 --insts=40000 --warmup=10000 --jobs=1 "
         "--warm-start=0",
         idleDram},
        {"warm-sweep", true,
         "mtdae ablate-checkpoint --threads-list=4,16,64 --latencies=16 "
         "--insts=250 --warmup=80000 --jobs=1 --warm-start=1",
         warmSweep},
    };
    return all;
}

/** The workload called @p name, or null. */
inline const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

} // namespace perfbench

#endif // MTDAE_PERFBENCH_WORKLOADS_HH
