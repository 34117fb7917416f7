/**
 * @file
 * Shared helpers for the mtdae test suites: canned kernels with known
 * dependence/memory structure and one-call simulator construction.
 */

#ifndef MTDAE_TESTS_TEST_UTIL_HH
#define MTDAE_TESTS_TEST_UTIL_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/config.hh"
#include "core/simulator.hh"
#include "harness/cli.hh"
#include "workload/kernel.hh"
#include "workload/trace_source.hh"

namespace mtdae::test {

/** Run the mtdae CLI capturing stdout into @p out; returns exit code. */
inline int
cli(const std::vector<std::string> &args, std::string &out)
{
    std::ostringstream os, es;
    const int rc = mtdae::cli::runCli(args, os, es);
    out = os.str();
    return rc;
}

/**
 * Call @p fn; when it throws, EXPECT the message to contain @p text and
 * rethrow, so EXPECT_THROW(test::withMessage(fn, text), Type) checks
 * both the exception type and its message.
 */
template <typename Fn>
void
withMessage(Fn fn, const std::string &text)
{
    try {
        fn();
    } catch (const std::exception &e) {
        EXPECT_NE(std::string(e.what()).find(text), std::string::npos)
            << "message: " << e.what();
        throw;
    }
}

/** Read a whole file as bytes (EXPECT-fails when it cannot open). */
inline std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << "cannot open " << path;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/**
 * A perfectly decoupled streaming kernel: FP loads from large strided
 * arrays feed independent FP work; all address computation is integer
 * induction. The canonical "decoupling hides everything" workload.
 */
inline Kernel
streamingKernel(std::uint64_t footprint = 4 * 1024 * 1024)
{
    KernelBuilder b;
    auto sA = b.strided(footprint, 8);
    auto sB = b.strided(footprint, 8);
    auto sC = b.strided(footprint, 8);
    const int a = b.ldf(sA);
    const int c = b.ldf(sB);
    const int t1 = b.fop(Opcode::FMul, a, c);
    const int t2 = b.fop(Opcode::FAdd, a, c);
    const int t3 = b.fop(Opcode::FSub, t1, t2);
    const int acc = b.fpReg();
    b.fopInto(Opcode::FMA, acc, t1, t2, acc);
    b.stf(sC, t3);
    b.advance(sA);
    b.advance(sB);
    b.advance(sC);
    return b.build("streaming");
}

/**
 * A loss-of-decoupling kernel: every iteration ends in an FP-conditional
 * branch, so the AP must repeatedly wait for the EP.
 */
inline Kernel
lodKernel(std::uint64_t footprint = 4 * 1024 * 1024)
{
    KernelBuilder b;
    auto sA = b.strided(footprint, 8);
    const int a = b.ldf(sA);
    const int t = b.fop(Opcode::FMul, a, a);
    const int fc = b.fop(Opcode::FCmp, t, a);
    b.brf(fc, 0.9f, 0);
    b.advance(sA);
    return b.build("lod");
}

/**
 * A pure integer pointer-chase-ish kernel: integer loads immediately
 * consumed by address arithmetic (maximal perceived integer latency).
 */
inline Kernel
intChaseKernel(std::uint64_t footprint = 4 * 1024 * 1024)
{
    KernelBuilder b;
    auto sI = b.strided(footprint, 8);
    const int v = b.ldi(sI);
    const int w = b.iop(Opcode::IAdd, v);
    b.iopInto(Opcode::ILogic, w, w, v);
    b.advance(sI);
    return b.build("int-chase");
}

/** A kernel that never touches memory (pure compute). */
inline Kernel
computeKernel()
{
    KernelBuilder b;
    const int x = b.fpReg();
    const int y = b.fop(Opcode::FAdd, x, x);
    const int z = b.fop(Opcode::FMul, y, x);
    b.fopInto(Opcode::FMA, x, y, z, x);
    const int i = b.intReg();
    b.iopInto(Opcode::IAdd, i, i);
    return b.build("compute");
}

/** Build a simulator running @p kernel on every thread of @p cfg. */
inline Simulator
makeSim(const SimConfig &cfg, const Kernel &kernel,
        std::uint64_t iterations = std::uint64_t(1) << 62)
{
    std::vector<std::unique_ptr<TraceSource>> sources;
    for (ThreadId t = 0; t < cfg.numThreads; ++t)
        sources.push_back(std::make_unique<KernelTraceSource>(
            kernel, Addr(t) << 34, 0x1000, 7 + t, iterations));
    return Simulator(cfg, std::move(sources));
}

/**
 * Step @p sim until every thread is done, checking
 * Simulator::checkInvariants() after every step when @p check. Fails,
 * naming the cycle, after 4M steps: a stalled pipeline fails the test
 * instead of hanging it.
 */
inline ::testing::AssertionResult
drain(Simulator &sim, bool check = false)
{
    constexpr std::uint64_t kMaxSteps = 4000000;
    for (std::uint64_t steps = 0; !sim.allDone(); ++steps) {
        if (steps == kMaxSteps)
            return ::testing::AssertionFailure()
                   << "not done after " << kMaxSteps << " steps, at cycle "
                   << sim.now();
        sim.step();
        if (check)
            if (const std::string rule = sim.checkInvariants(); !rule.empty())
                return ::testing::AssertionFailure() << rule;
    }
    return ::testing::AssertionSuccess();
}

/**
 * CLI spellings of values knob @p k accepts: each end of a number's
 * range (and both ends as one list), both bools, every enum kind.
 */
inline std::vector<std::string>
knobSpellings(const Knob &k)
{
    return std::visit(
        [&](auto field) -> std::vector<std::string> {
            using T = std::decay_t<decltype(SimConfig{}.*field)>;
            const std::string lo = std::to_string(k.min);
            const std::string hi = std::to_string(k.max);
            if constexpr (std::is_same_v<T, bool>) {
                return {"0", "1"};
            } else if constexpr (std::is_same_v<T, PolicyKind>) {
                std::vector<std::string> names;
                for (const PolicyKind p : allPolicies())
                    names.push_back(policyName(p));
                return names;
            } else if constexpr (std::is_same_v<T, SimConfig::PredictorKind>) {
                return {predictorName(SimConfig::PredictorKind::Bimodal),
                        predictorName(SimConfig::PredictorKind::Gshare)};
            } else if constexpr (std::is_same_v<T,
                                                std::vector<std::uint32_t>>) {
                return {lo, hi, lo + "," + hi};
            } else {
                return {lo, hi};
            }
        },
        k.field);
}

/** A small machine configuration that runs fast in unit tests. */
inline SimConfig
testConfig(std::uint32_t threads = 1, bool decoupled = true,
           std::uint32_t l2_latency = 16)
{
    SimConfig cfg;
    cfg.numThreads = threads;
    cfg.decoupled = decoupled;
    cfg.l2Latency = l2_latency;
    cfg.warmupInsts = 2000;
    return cfg;
}

} // namespace mtdae::test

#endif // MTDAE_TESTS_TEST_UTIL_HH
