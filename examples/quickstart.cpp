/**
 * @file
 * Quickstart: build the paper's Figure 2 machine, run one benchmark on
 * it, and print the headline metrics. Start here.
 *
 * Usage: quickstart [benchmark] [threads] [l2_latency]
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "harness/experiment.hh"
#include "workload/spec_fp95.hh"

namespace {

int
run(int argc, char **argv)
{
    using namespace mtdae;

    const std::string bench = argc > 1 ? argv[1] : "tomcatv";
    const std::uint32_t threads =
        argc > 2 ? std::uint32_t(std::atoi(argv[2])) : 1;
    const std::uint32_t l2 =
        argc > 3 ? std::uint32_t(std::atoi(argv[3])) : 16;

    // The paper's machine: 4 AP + 4 EP units, SMT, decoupled.
    const SimConfig cfg = paperConfig(threads, /*decoupled=*/true, l2);
    const RunResult r = runBenchmark(cfg, bench, instsBudget(300000));

    std::cout << "benchmark            : " << bench << "\n"
              << "threads              : " << threads << "\n"
              << "L2 latency           : " << l2 << " cycles\n"
              << "cycles               : " << r.cycles << "\n"
              << "instructions         : " << r.insts << "\n"
              << "IPC                  : " << r.ipc << "\n"
              << "perceived FP miss    : " << r.perceivedFp << " cycles\n"
              << "perceived int miss   : " << r.perceivedInt << " cycles\n"
              << "L1 load miss ratio   : " << r.loadMissRatio << "\n"
              << "L1 store miss ratio  : " << r.storeMissRatio << "\n"
              << "bus utilization      : " << r.busUtilization << "\n"
              << "AP useful fraction   : "
              << r.ap.fraction(SlotUse::Useful) << "\n"
              << "EP useful fraction   : "
              << r.ep.fraction(SlotUse::Useful) << "\n"
              << "mispredict rate      : " << r.mispredictRate << "\n";
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
        std::cerr << "quickstart: " << e.what() << "\n"
                  << "usage: quickstart [benchmark] [threads] [l2_latency]\n";
        return 2;
    }
}
