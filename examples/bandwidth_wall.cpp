/**
 * @file
 * The bandwidth wall (paper Section 3.3 / Figure 5), demonstrated on
 * the *real* memory backend: with a finite L2 and a banked DRAM, adding
 * hardware contexts multiplies miss traffic into a fixed number of row
 * buffers and one shared DRAM data bus. Threads destroy each other's
 * row-buffer locality (watch the row-hit column fall) and the emergent
 * fill latency climbs — a wall no amount of extra contexts can push
 * through, where the old fixed-latency approximation only ever showed
 * the L1-L2 bus saturating.
 *
 * Usage: bandwidth_wall [dram_scale] [max_threads]
 *   dram_scale  slow the DRAM down by this factor (default 2)
 *   max_threads sweep 1..max_threads contexts     (default 8)
 */

#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "harness/experiment.hh"
#include "harness/sweep.hh"

namespace {

int
run(int argc, char **argv)
{
    using namespace mtdae;

    const std::uint32_t scale =
        argc > 1 ? std::uint32_t(std::atoi(argv[1])) : 2;
    const std::uint32_t max_threads =
        argc > 2 ? std::uint32_t(std::atoi(argv[2])) : 8;
    const std::uint64_t insts = instsBudget(120000);

    std::cout << "Finite L2 + DRAM backend, DRAM slowed x" << scale
              << "; suite-mix workload\n"
              << "threads |  dec IPC  fill  row% dbus% | "
                 "nondec IPC  fill  row% dbus%\n";

    SweepSpec spec;
    for (std::uint32_t n = 1; n <= max_threads; ++n) {
        for (const bool dec : {true, false}) {
            SimConfig cfg = paperConfig(n, dec, 16);
            cfg.perfectL2 = false;
            cfg.dramCas *= scale;
            cfg.dramRas *= scale;
            cfg.dramPrecharge *= scale;
            spec.addSuiteMix(cfg, insts * n,
                             std::to_string(n) + "T " +
                                 (dec ? "dec" : "non-dec"));
        }
    }
    const std::vector<RunResult> runs = JobRunner(defaultJobs()).run(spec);

    double fill_1t = 0.0, fill_max = 0.0;
    std::size_t k = 0;
    for (std::uint32_t n = 1; n <= max_threads; ++n) {
        std::cout << std::setw(7) << n;
        for (const bool dec : {true, false}) {
            const RunResult &r = runs.at(k++);
            if (dec && n == 1)
                fill_1t = r.avgFillLatency;
            if (dec && n == max_threads)
                fill_max = r.avgFillLatency;
            std::cout << std::fixed << " | " << std::setw(8)
                      << std::setprecision(2) << r.ipc << " "
                      << std::setw(5) << std::setprecision(0)
                      << r.avgFillLatency << " " << std::setw(5)
                      << std::setprecision(1)
                      << 100.0 * r.dramRowHitRatio << " " << std::setw(5)
                      << 100.0 * r.dramBusUtilization;
        }
        std::cout << "\n";
    }

    std::cout << "\nThe same L1 miss that cost "
              << std::setprecision(0) << fill_1t
              << " cycles with one thread costs " << fill_max << " with "
              << max_threads
              << ":\nlatency is emergent now — row-buffer interference "
                 "and DRAM bus queueing are\nthe wall, and extra "
                 "contexts climb it instead of hiding it "
                 "(docs/MEMORY.md).\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // A bad argument is a usage error: say so and exit 2, as mtdae does.
    try {
        return run(argc, argv);
    } catch (const mtdae::ConfigError &e) {
        std::cerr << "bandwidth_wall: " << e.what() << "\n"
                  << "usage: bandwidth_wall [dram_scale] [max_threads]\n";
        return 2;
    }
}
