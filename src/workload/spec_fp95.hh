/**
 * @file
 * The ten SPEC FP95 benchmarks the paper traces, as synthetic models.
 *
 * Each model is a kernel whose instruction mix, footprint and dependence
 * structure reproduce the benchmark's first-order behaviour as reported
 * in the paper (Figure 1) and in the SPEC FP95 literature. A model is
 * written once, as the kernel-DSL file examples/kernels/<name>.mk; the
 * build embeds the ten texts and each process compiles them once, on
 * first use (docs/KERNEL_DSL.md, "Built-in models"):
 *
 *  - tomcatv/swim:  streaming stencils; high L1 miss ratio, near-perfect
 *                   decoupling (address computation independent of FP).
 *  - mgrid/applu:   mixed-stride 3-D sweeps; moderate misses, good
 *                   decoupling.
 *  - apsi:          moderate streams and FP chains.
 *  - su2cor:        gather — integer index loads feed FP-load addresses;
 *                   significant miss ratio (largest int-load stalls).
 *  - wave5:         gather/scatter plus FP-conditional branches.
 *  - hydro2d:       column-major (line-sized stride) sweeps; the highest
 *                   miss ratio; bandwidth-bound at high L2 latency.
 *  - turb3d:        cache-resident blocks; tiny miss ratio but immediately
 *                   used integer loads (high perceived int latency).
 *  - fpppp:         huge cache-resident FP blocks, just-in-time scalar
 *                   addressing and FP branches: the worst decoupling.
 */

#ifndef MTDAE_WORKLOAD_SPEC_FP95_HH
#define MTDAE_WORKLOAD_SPEC_FP95_HH

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hh"
#include "workload/kernel.hh"
#include "workload/trace_source.hh"

namespace mtdae {

/** A built-in model's name and the text of its .mk file. */
struct BuiltinKernelText
{
    std::string_view name;
    std::string_view text;
};

/**
 * The ten modelled benchmarks' kernel texts, in the paper's Figure 1
 * order, as embedded from examples/kernels/ when the build was
 * configured (the list of names lives in CMakeLists.txt).
 */
std::span<const BuiltinKernelText> builtinKernelTexts();

/** Names of the ten modelled benchmarks, in the paper's Figure 1 order. */
const std::vector<std::string> &specFp95Names();

/**
 * Index of @p name in specFp95Names(), or specFp95Names().size() when
 * @p name is not a modelled benchmark.
 */
std::size_t specFp95Index(const std::string &name);

/**
 * The canonical workload memory layout, shared by every kernel-backed
 * factory (spec_fp95 and the DSL): disjoint per-(thread, slot) data
 * regions that alias L1 frames across threads, a per-slot code region,
 * and a per-(seed, thread, slot) RNG stream. The ten benchmark models
 * occupy slots 0-9; other workloads must use slots below 63 (the region
 * encoding keeps slot+1 in 6 bits).
 */
Addr workloadRegionBase(ThreadId thread, std::size_t slot);
Addr workloadPcBase(std::size_t slot);
std::uint64_t workloadSourceSeed(std::uint64_t seed, ThreadId thread,
                                 std::size_t slot);

/** The compiled kernel model for @p name (a copy of the process-wide
 *  one); throws ConfigError on an unknown name. */
Kernel buildSpecFp95(const std::string &name);

/**
 * A single-benchmark trace source for one hardware context.
 * Memory regions are disjoint per (thread, benchmark) but share L1
 * frames across threads, so multithreaded cache contention emerges.
 *
 * @param name   benchmark name
 * @param thread hardware context the trace will run on
 * @param seed   base RNG seed
 * @throws ConfigError on an unknown name
 */
std::unique_ptr<KernelTraceSource>
makeSpecFp95Source(const std::string &name, ThreadId thread,
                   std::uint64_t seed);

/**
 * The paper's Section 3 workload: a rotation of all ten benchmarks,
 * starting at a thread-specific position so every thread runs the full
 * suite "in a different order".
 *
 * @param thread        hardware context
 * @param seed          base RNG seed
 * @param segment_insts instructions per benchmark visit
 */
std::unique_ptr<SequenceTraceSource>
makeSuiteMixSource(ThreadId thread, std::uint64_t seed,
                   std::uint64_t segment_insts = 30000);

/**
 * Factory binding a single benchmark to every hardware context (the
 * Figure 1 workload shape): the DSL factory over the model's embedded
 * text, so thread t runs @p name on its own memory region, seeded from
 * the run seed. Throws ConfigError on an unknown name.
 */
std::unique_ptr<TraceSourceFactory>
makeBenchmarkFactory(const std::string &name);

/**
 * Factory for the paper's Section 3 suite-mix workload: every context
 * rotates through all ten benchmarks from a thread-specific start.
 */
std::unique_ptr<TraceSourceFactory>
makeSuiteMixFactory(std::uint64_t segment_insts = 30000);

} // namespace mtdae

#endif // MTDAE_WORKLOAD_SPEC_FP95_HH
