/**
 * @file
 * google-benchmark microbenchmarks of the simulator components: raw
 * throughput of the RNG, the BHT, the cache model, trace expansion and
 * whole-machine simulation (cycles/second and instructions/second).
 */

#include <benchmark/benchmark.h>

#include "branch/bht.hh"
#include "common/rng.hh"
#include "core/context.hh"
#include "core/simulator.hh"
#include "harness/experiment.hh"
#include "memory/memory_system.hh"
#include "workload/spec_fp95.hh"
#include "workload/trace_source.hh"

using namespace mtdae;

static void
BM_RngNext(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

static void
BM_BhtPredictUpdate(benchmark::State &state)
{
    Bht bht(2048);
    Addr pc = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bht.predict(pc));
        bht.update(pc, (pc & 4) != 0);
        pc += 4;
    }
}
BENCHMARK(BM_BhtPredictUpdate);

static void
BM_CacheHit(benchmark::State &state)
{
    SimConfig cfg;
    MemorySystem mem(cfg);
    mem.beginCycle(0);
    (void)mem.load(0x1000, 0);
    Cycle now = 0;
    for (auto _ : state) {
        mem.beginCycle(++now);
        benchmark::DoNotOptimize(mem.load(0x1000, now));
    }
}
BENCHMARK(BM_CacheHit);

static void
BM_CacheStreamingMiss(benchmark::State &state)
{
    SimConfig cfg;
    MemorySystem mem(cfg);
    Addr a = 0;
    Cycle now = 0;
    for (auto _ : state) {
        mem.beginCycle(++now);
        benchmark::DoNotOptimize(mem.load(a, now));
        a += 32;
    }
}
BENCHMARK(BM_CacheStreamingMiss);

static void
BM_TraceExpansion(benchmark::State &state)
{
    const std::string bench =
        specFp95Names()[std::size_t(state.range(0))];
    auto src = makeSpecFp95Source(bench, 0, 1);
    TraceInst ti;
    for (auto _ : state) {
        if (!src->next(ti))
            state.SkipWithError("trace ended");
        benchmark::DoNotOptimize(ti);
    }
    state.SetLabel(bench);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceExpansion)->DenseRange(0, 9);

static void
BM_SimulatorCycles(benchmark::State &state)
{
    const std::uint32_t threads = std::uint32_t(state.range(0));
    SimConfig cfg = paperConfig(threads, true, 16);
    cfg.warmupInsts = 0;
    std::vector<std::unique_ptr<TraceSource>> sources;
    for (ThreadId t = 0; t < threads; ++t)
        sources.push_back(makeSuiteMixSource(t, 1));
    Simulator sim(cfg, std::move(sources));
    std::uint64_t insts_before = 0;
    for (auto _ : state) {
        sim.step();
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["insts_per_cycle"] = benchmark::Counter(
        double(sim.totalGraduated() - insts_before) /
        double(state.iterations()));
}
BENCHMARK(BM_SimulatorCycles)->Arg(1)->Arg(4)->Arg(8)->Arg(64);

// --- Hot-loop micros (docs/PERFORMANCE.md) ----------------------------

/** Store-forwarding lookup against a full-size SAQ: Arg(0) = the
 *  reference linear walk, Arg(1) = the word-count index the issue
 *  stage uses (Context::saqForwardsFast). */
static void
BM_SaqForwardLookup(benchmark::State &state)
{
    const bool fast = state.range(1) != 0;
    const std::size_t entries = std::size_t(state.range(0));
    SimConfig cfg;
    cfg.saqEntries = std::uint32_t(entries);
    Context ctx(0, cfg, makeSuiteMixSource(0, 1));
    for (std::size_t i = 0; i < entries; ++i) {
        SaqEntry e;
        e.seq = InstSeq(i);
        e.addrValid = (i % 2) == 0;
        e.addr = Addr(i) << 3;
        ctx.saq.push_back(e);
        if (e.addrValid)
            ctx.saqDeposit(e.addr);
    }
    Addr probe = 0;
    for (auto _ : state) {
        probe = (probe + 8) & 0x1fff;
        if (fast)
            benchmark::DoNotOptimize(ctx.saqForwardsFast(probe));
        else
            benchmark::DoNotOptimize(
                ctx.saqForwards(InstSeq(1) << 30, probe));
    }
}
BENCHMARK(BM_SaqForwardLookup)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({512, 0})
    ->Args({512, 1});

/** step() with the profiling instrumentation off (Arg 0) vs. on
 *  (Arg 1): the gap is the cost of --profile itself. */
static void
BM_SimulatorStepProfiled(benchmark::State &state)
{
    SimConfig cfg = paperConfig(4, true, 64);
    cfg.warmupInsts = 0;
    std::vector<std::unique_ptr<TraceSource>> sources;
    for (ThreadId t = 0; t < 4; ++t)
        sources.push_back(makeSuiteMixSource(t, 1));
    Simulator sim(cfg, std::move(sources));
    sim.setProfiling(state.range(0) != 0);
    for (auto _ : state)
        sim.step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorStepProfiled)->Arg(0)->Arg(1);

/** A 2-context non-decoupled machine at L2=256, driven through
 *  Simulator::run so the idle-skip engine takes part: most heads wait
 *  for a fill: a refused load or store waiting, or a head blocked on a
 *  miss.
 *  Items are graduated instructions. */
static void
BM_RunStalledNonDecoupled(benchmark::State &state)
{
    SimConfig cfg = paperConfig(2, false, 256);
    cfg.warmupInsts = 0;
    std::vector<std::unique_ptr<TraceSource>> sources;
    for (ThreadId t = 0; t < cfg.numThreads; ++t)
        sources.push_back(makeSuiteMixSource(t, 1));
    Simulator sim(cfg, std::move(sources));
    std::uint64_t insts = 0;
    for (auto _ : state)
        insts += sim.run(1000).insts;
    state.SetItemsProcessed(std::int64_t(insts));
}
BENCHMARK(BM_RunStalledNonDecoupled);

BENCHMARK_MAIN();
