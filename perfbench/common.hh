/**
 * @file
 * Helpers shared by the two benchmark programs: flag parsing, the wall
 * clock, and the text form of a job's simulated results that
 * perfbench/run.py digests for the correctness gate.
 */

#ifndef MTDAE_PERFBENCH_COMMON_HH
#define MTDAE_PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulator.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Parse `--key=value` flags. @return false (after printing @p usage)
 * when a flag is malformed or a key in @p required is missing.
 */
inline bool
parseFlags(int argc, char **argv, const std::vector<std::string> &required,
           const char *usage, std::map<std::string, std::string> &out)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto eq = a.find('=');
        if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
            std::fprintf(stderr, "bad flag '%s'\nusage: %s\n", a.c_str(),
                         usage);
            return false;
        }
        out[a.substr(2, eq - 2)] = a.substr(eq + 1);
    }
    for (const std::string &key : required)
        if (!out.count(key)) {
            std::fprintf(stderr, "missing --%s\nusage: %s\n", key.c_str(),
                         usage);
            return false;
        }
    return true;
}

/**
 * Every simulated RunResult field of one job, '|'-separated, doubles
 * with 17 significant digits. cyclesSkipped, skipEvents and profile are
 * left out: they depend on the execution strategy and the wall clock,
 * not on what was simulated.
 */
inline std::string
resultRow(const std::string &label, const mtdae::RunResult &r)
{
    std::ostringstream os;
    os.precision(17);
    os << label << '|' << r.cycles << '|' << r.insts << '|' << r.ipc << '|'
       << r.perceivedFp << '|' << r.perceivedInt << '|' << r.perceivedAll
       << '|' << r.fpMisses << '|' << r.intMisses << '|' << r.loadMissRatio
       << '|' << r.storeMissRatio << '|' << r.missRatio << '|'
       << r.mergedRatio << '|' << r.busUtilization << '|'
       << r.avgFillLatency << '|' << r.l2MissRatio << '|'
       << r.dramRowHitRatio << '|' << r.dramBusUtilization << '|'
       << r.mispredictRate << '|' << r.weightedSpeedup << '|'
       << r.fairnessHmean << '|' << r.fairnessMaxMin;
    for (const auto *slots : {&r.ap, &r.ep})
        for (const std::uint64_t c : slots->counts)
            os << '|' << c;
    for (const std::uint64_t n : r.threadInsts)
        os << '|' << n;
    for (const double s : r.threadSlowdown)
        os << '|' << s;
    return os.str();
}

/** One `ROW <rep> <row>` line per job, in grid order. */
inline void
printRows(int rep, const std::vector<std::string> &labels,
          const std::vector<mtdae::RunResult> &results)
{
    for (std::size_t i = 0; i < results.size(); ++i)
        std::printf("ROW %d %s\n", rep,
                    resultRow(labels[i], results[i]).c_str());
}

} // namespace perfbench

#endif // MTDAE_PERFBENCH_COMMON_HH
