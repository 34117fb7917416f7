#include "workload/spec_fp95.hh"

#include <algorithm>

#include "common/config.hh"
#include "common/log.hh"

namespace mtdae {

namespace {

constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kMiB = 1024 * 1024;

/**
 * Emit the layered FP body typical of compiler-scheduled FP95 loops:
 * a first layer of operations on the loaded values only, a second layer
 * combining first-layer results, and one shallow loop-carried reduction.
 * The layering keeps enough independent work in issue order for the
 * in-order EP while the reduction bounds the steady-state iteration
 * period — this is what gives the paper's single-thread EP behaviour
 * (FU-latency bound, not dependence-serialised).
 *
 * @param b      builder to append to
 * @param loaded FP registers holding loaded values (>= 2)
 * @param layer0 first-layer op count (ops on loaded values only)
 * @param layer1 second-layer op count
 * @return an FP register of the last layer (for stores)
 */
int
layeredFpBody(KernelBuilder &b, const std::vector<int> &loaded,
              int layer0, int layer1)
{
    MTDAE_ASSERT(loaded.size() >= 2, "layeredFpBody needs >= 2 loads");
    static const Opcode ops[3] = {Opcode::FMul, Opcode::FAdd,
                                  Opcode::FSub};
    // Layer 0: operations on loaded values only, no cross dependences.
    std::vector<int> l0;
    for (int i = 0; i < layer0; ++i)
        l0.push_back(b.fop(ops[i % 3], loaded[i % loaded.size()],
                           loaded[(i + 1) % loaded.size()]));
    // Layer 1: combine layer-0 results, still independent of each other.
    std::vector<int> l1;
    for (int i = 0; i < layer1; ++i)
        l1.push_back(b.fop(ops[(i + 1) % 3], l0[i % l0.size()],
                           l0[(i + 1) % l0.size()]));
    // Two independent loop-carried reductions: one FMA each per
    // iteration, bounding the steady-state period without serialising
    // the whole body.
    const int acc0 = b.fpReg();
    const int acc1 = b.fpReg();
    b.fopInto(Opcode::FMA, acc0, l1[0], l1[l1.size() - 1], acc0);
    b.fopInto(Opcode::FMA, acc1, l0[0], l1[l1.size() / 2], acc1);
    return l1[l1.size() / 2];
}

/**
 * Append @p n integer address-arithmetic operations on a scratch
 * register — the induction/index computation that fills AP slots in real
 * compiled FP95 loops without adding memory traffic.
 */
void
indexArith(KernelBuilder &b, int n)
{
    const int scratch = b.intReg();
    static const Opcode ops[3] = {Opcode::IAdd, Opcode::IShift,
                                  Opcode::ILogic};
    for (int i = 0; i < n; ++i)
        b.iopInto(ops[i % 3], scratch, scratch);
}

/**
 * tomcatv: vectorised mesh generation. Unit-stride sweeps over several
 * multi-MB arrays; address arithmetic fully independent of the FP
 * results (near-perfect decoupling, significant miss ratio).
 */
Kernel
buildTomcatv()
{
    KernelBuilder b;
    auto sA = b.strided(2 * kMiB, 8);           // streaming input plane
    auto sB = b.strided(4 * kKiB, 24);          // reused previous plane
    auto sX = b.stridedShared(4 * kKiB, 24, sB.addrReg);  // coefficients
    auto sC = b.strided(2 * kMiB, 8);            // streaming output

    const std::vector<int> loaded = {b.ldf(sA), b.ldf(sB), b.ldf(sX)};
    const int out = layeredFpBody(b, loaded, 5, 4);
    b.stf(sC, out);
    b.advance(sA);
    b.advance(sX);
    b.advance(sC);
    indexArith(b, 4);
    return b.build("tomcatv");
}

/**
 * swim: shallow-water stencil. Three input streams (one line-strided)
 * and two output streams over ~4 MB arrays: bandwidth-heavy, perfectly
 * decoupled.
 */
Kernel
buildSwim()
{
    KernelBuilder b;
    auto sU = b.strided(4 * kMiB, 8);            // streaming field
    auto sV = b.strided(4 * kKiB, 24);          // reused row buffer
    auto sP = b.strided(1 * kMiB, 8);            // second field
    auto sUn = b.strided(4 * kMiB, 8);           // streaming output
    auto sVn = b.stridedShared(4 * kKiB, 24, sV.addrReg);  // reused out

    const std::vector<int> loaded = {b.ldf(sU), b.ldf(sV), b.ldf(sP)};
    const int out = layeredFpBody(b, loaded, 5, 4);
    b.stf(sUn, out);
    b.stf(sVn, loaded[0]);
    b.advance(sU);
    b.advance(sP);
    b.advance(sUn);
    indexArith(b, 4);
    return b.build("swim");
}

/**
 * su2cor: quantum-chromodynamics gather code. Integer index loads feed
 * the addresses of FP loads over a large table: integer-load misses
 * stall the AP directly (the paper's largest integer perceived
 * latencies) while the overall miss ratio stays significant.
 */
Kernel
buildSu2cor()
{
    KernelBuilder b;
    auto sIdx = b.strided(1 * kMiB, 4, 4);
    auto sS = b.strided(4 * kKiB, 24);          // reused propagator block

    // The index is loaded one iteration ahead (software pipelining, as
    // the compiler schedules it), so an index miss is partially hidden:
    // its consumer is a body-length away, not adjacent.
    const int idx = b.intReg();
    auto gT = b.gather(64 * kKiB, idx);
    const std::vector<int> loaded = {b.ldf(gT), b.ldf(sS)};
    const int out = layeredFpBody(b, loaded, 4, 3);
    auto sOut = b.strided(4 * kKiB, 24);  // block-local output
    b.stf(sOut, out);
    b.ldiInto(idx, sIdx);  // next iteration's index
    b.advance(sIdx);
    b.advance(sS);
    b.advance(sOut);
    indexArith(b, 2);
    return b.build("su2cor");
}

/**
 * hydro2d: Navier-Stokes on a 2-D grid with column-order inner loops:
 * line-sized strides make nearly every access a miss over an 8 MB
 * working set — the highest miss ratio of the suite and the first
 * program to hit the L2 bus bandwidth wall.
 */
Kernel
buildHydro2d()
{
    KernelBuilder b;
    auto sR = b.strided(8 * kMiB, 32);           // column sweep
    auto sU = b.strided(6 * kKiB, 24);          // reused column block
    auto sV = b.strided(4 * kKiB, 24);          // reused boundary row
    auto sW = b.strided(4 * kMiB, 8);            // streaming output

    const std::vector<int> loaded = {b.ldf(sR), b.ldf(sU), b.ldf(sV)};
    const int out = layeredFpBody(b, loaded, 5, 4);
    b.stf(sW, out);
    b.advance(sR);
    b.advance(sU);
    b.advance(sV);
    b.advance(sW);
    indexArith(b, 4);
    return b.build("hydro2d");
}

/**
 * mgrid: multigrid solver. Mixed unit and coarse strides (restriction
 * and prolongation touch every other plane): moderate miss ratio,
 * excellent decoupling.
 */
Kernel
buildMgrid()
{
    KernelBuilder b;
    auto sF = b.strided(2 * kMiB, 8);            // fine-grid sweep
    auto sC = b.strided(4 * kKiB, 24);          // coarse grid (resident)
    auto sN = b.stridedShared(4 * kKiB, 24, sC.addrReg);  // neighbours
    auto sO = b.strided(4 * kKiB, 24);          // block-local output

    const std::vector<int> loaded = {b.ldf(sF), b.ldf(sC), b.ldf(sN)};
    const int out = layeredFpBody(b, loaded, 5, 4);
    b.stf(sO, out);
    b.advance(sF);
    b.advance(sC);
    b.advance(sO);
    indexArith(b, 4);
    return b.build("mgrid");
}

/**
 * applu: SSOR solver on a structured grid. Unit-stride block sweeps
 * with a small data-dependent hammock (pivot-style test).
 */
Kernel
buildApplu()
{
    KernelBuilder b;
    auto sA = b.strided(1536 * kKiB, 8);         // streaming sweep
    auto sB = b.strided(4 * kKiB, 24);          // reused block
    auto sC = b.stridedShared(4 * kKiB, 24, sB.addrReg);  // reused block
    auto sO = b.strided(4 * kKiB, 24);          // block-local output

    const std::vector<int> loaded = {b.ldf(sA), b.ldf(sB), b.ldf(sC)};
    const int out = layeredFpBody(b, loaded, 5, 4);
    const int cnd = b.iop(Opcode::ICmp, b.iop(Opcode::IAdd, sA.addrReg));
    b.br(cnd, 0.2f, 1);
    b.stf(sO, out);
    b.advance(sA);
    b.advance(sB);
    b.advance(sO);
    indexArith(b, 3);
    return b.build("applu");
}

/**
 * turb3d: turbulence FFT kernels on cache-resident blocks. Almost no
 * misses, but integer index loads are consumed immediately by dependent
 * address arithmetic, so the rare miss is fully exposed (high perceived
 * integer latency at a negligible miss ratio).
 */
Kernel
buildTurb3d()
{
    KernelBuilder b;
    auto sRe = b.strided(4 * kKiB, 8);
    auto sIm = b.stridedShared(4 * kKiB, 8, sRe.addrReg);
    auto sTw = b.strided(4 * kKiB, 8);
    // A plane-boundary reload: once in a while (predictable hammock) a
    // 32-bit index is fetched from a multi-MB table and consumed by
    // dependent address arithmetic immediately. Misses are rare — the
    // miss *ratio* stays tiny and performance is hardly affected — but
    // each one is fully exposed, which is exactly turb3d's signature in
    // the paper (Figure 1-b vs. Figure 1-c/1-d).
    auto sIdx = b.strided(2 * kMiB, 4, 4);

    const std::vector<int> loaded = {b.ldf(sRe), b.ldf(sIm), b.ldf(sTw)};
    const int out = layeredFpBody(b, loaded, 5, 4);
    auto sO = b.strided(4 * kKiB, 8);
    b.stf(sO, out);
    const int cnd = b.iop(Opcode::ICmp, sRe.addrReg);
    b.br(cnd, 0.97f, 3);  // skip the reload on all but ~3% of iterations
    const int idx = b.ldi(sIdx);
    const int off = b.iop(Opcode::IShift, idx);     // immediate use
    b.iopInto(Opcode::ILogic, off, off, sRe.addrReg);
    b.advance(sRe);
    b.advance(sTw);
    b.advance(sO);
    indexArith(b, 3);
    return b.build("turb3d");
}

/**
 * apsi: mesoscale weather. Moderate streams, moderate FP layers, a
 * small data-dependent branch.
 */
Kernel
buildApsi()
{
    KernelBuilder b;
    auto sT = b.strided(2 * kMiB, 8);            // streaming sweep
    auto sQ = b.strided(4 * kKiB, 24);          // reused column
    auto sO = b.strided(4 * kKiB, 24);          // column-local output

    const std::vector<int> loaded = {b.ldf(sT), b.ldf(sQ)};
    const int out = layeredFpBody(b, loaded, 5, 4);
    const int cnd = b.iop(Opcode::ICmp, sT.addrReg);
    b.br(cnd, 0.15f, 1);
    b.stf(sO, out);
    b.advance(sT);
    b.advance(sQ);
    b.advance(sO);
    indexArith(b, 4);
    return b.build("apsi");
}

/**
 * fpppp: quantum chemistry. Enormous straight-line FP blocks over a
 * cache-resident working set: almost no misses, but scalar loads are
 * addressed just in time and every block ends with an FP-conditional
 * branch — the worst decoupling of the suite (its rare misses are fully
 * perceived, per paper Figure 1-a/1-b).
 */
Kernel
buildFpppp()
{
    KernelBuilder b;
    auto sSc = b.strided(4 * kKiB, 8);
    const int acc = b.fpReg();
    // Once in a while a two-electron integral is fetched from a huge
    // table; fpppp's flat dependence structure consumes it immediately,
    // so the rare FP miss is fully perceived (paper Figure 1-a).
    const int spill = b.fpReg();
    {
        const int cnd = b.iop(Opcode::ICmp, sSc.addrReg);
        b.br(cnd, 0.95f, 2);
        const int off2 = b.iop(Opcode::IAdd, sSc.addrReg);
        auto gBig = b.gather(2 * kMiB, off2);
        b.ldfInto(spill, gBig);
    }
    b.fopInto(Opcode::FAdd, acc, acc, spill);

    for (int block = 0; block < 2; ++block) {
        const int idx = b.ldi(sSc);
        const int off = b.iop(Opcode::IAdd, idx);
        auto gD = b.gather(6 * kKiB, off);
        const int d = b.ldf(gD);
        const int e = b.ldf(gD);
        // The block-guarding FP branch tests the loaded datum early in
        // EP order, but the AP must still wait for the EP's in-order
        // point to reach it: the classic loss-of-decoupling event.
        const int fc = b.fop(Opcode::FCmp, d, acc);
        b.brf(fc, 0.85f, 0);
        // A wide layer of independent terms (the scheduled block) ...
        const int t1 = b.fop(Opcode::FMul, d, e);
        const int t2 = b.fop(Opcode::FAdd, d, e);
        const int t3 = b.fop(Opcode::FSub, e, d);
        const int t4 = b.fop(Opcode::FMul, e, e);
        // ... a short reduction spine over them ...
        const int c1 = b.fop(Opcode::FMA, t1, t2, acc);
        const int c2 = b.fop(Opcode::FAdd, t3, t4);
        // ... and more independent tail work.
        const int p1 = b.fop(Opcode::FAdd, t1, t3);
        const int p2 = b.fop(Opcode::FMul, t2, t4);
        const int p3 = b.fop(Opcode::FAdd, p1, p2);
        b.fopInto(Opcode::FMA, acc, c1, c2, acc);
        (void)p3;
        b.advance(sSc);
    }
    return b.build("fpppp");
}

/**
 * wave5: plasma particle-in-cell. Gather of particle fields, scatter of
 * updates, and FP-conditional boundary tests: integer stalls, moderate
 * misses and loss-of-decoupling events combined.
 */
Kernel
buildWave5()
{
    KernelBuilder b;
    auto sIdx = b.strided(1 * kMiB, 4, 4);
    auto sF = b.strided(4 * kKiB, 24);          // reused field block

    // Particle index pipelined one iteration ahead (gather); the
    // boundary test (an FP-conditional branch) fires only for the
    // minority of particles near the domain edge — an integer hammock
    // skips it most iterations, so the loss-of-decoupling events are
    // intermittent, as in the real code.
    const int idx = b.intReg();
    const int bnd = b.fpReg();
    auto gE = b.gather(64 * kKiB, idx);
    const std::vector<int> loaded = {b.ldf(gE), b.ldf(sF)};
    const int cnd = b.iop(Opcode::ICmp, sF.addrReg);
    b.br(cnd, 0.9f, 2);
    const int fc = b.fop(Opcode::FCmp, loaded[1], bnd);
    b.brf(fc, 0.3f, 0);
    const int out = layeredFpBody(b, loaded, 4, 3);
    b.fopInto(Opcode::FMov, bnd, out);
    const int idx2 = b.iop(Opcode::IAdd, idx);
    auto gS = b.gather(32 * kKiB, idx2);
    b.stf(gS, out);
    b.ldiInto(idx, sIdx);  // next particle's index
    b.advance(sIdx);
    b.advance(sF);
    indexArith(b, 2);
    return b.build("wave5");
}

/** Per-(thread, benchmark) disjoint memory regions that share L1 frames. */
Addr
regionBase(ThreadId thread, std::size_t bench_idx)
{
    // Threads are staggered by 8 KB so identical programs on different
    // threads do not collide frame-for-frame.
    return (Addr(thread) << 34) + (Addr(bench_idx + 1) << 28) +
           Addr(thread) * 8 * kKiB;
}

Addr
pcBase(std::size_t bench_idx)
{
    return Addr(bench_idx + 1) << 20;
}

std::uint64_t
sourceSeed(std::uint64_t seed, ThreadId thread, std::size_t bench_idx)
{
    return seed * 0x9e3779b97f4a7c15ULL + (std::uint64_t(thread) << 32) +
           bench_idx + 1;
}

} // namespace

const std::vector<std::string> &
specFp95Names()
{
    static const std::vector<std::string> names = {
        "tomcatv", "swim", "su2cor", "hydro2d", "mgrid",
        "applu", "turb3d", "apsi", "fpppp", "wave5",
    };
    return names;
}

std::size_t
specFp95Index(const std::string &name)
{
    const auto &names = specFp95Names();
    std::size_t idx = 0;
    while (idx < names.size() && names[idx] != name)
        ++idx;
    return idx;
}

Addr
workloadRegionBase(ThreadId thread, std::size_t slot)
{
    return regionBase(thread, slot);
}

Addr
workloadPcBase(std::size_t slot)
{
    return pcBase(slot);
}

std::uint64_t
workloadSourceSeed(std::uint64_t seed, ThreadId thread, std::size_t slot)
{
    return sourceSeed(seed, thread, slot);
}

Kernel
buildSpecFp95(const std::string &name)
{
    if (name == "tomcatv") return buildTomcatv();
    if (name == "swim")    return buildSwim();
    if (name == "su2cor")  return buildSu2cor();
    if (name == "hydro2d") return buildHydro2d();
    if (name == "mgrid")   return buildMgrid();
    if (name == "applu")   return buildApplu();
    if (name == "turb3d")  return buildTurb3d();
    if (name == "apsi")    return buildApsi();
    if (name == "fpppp")   return buildFpppp();
    if (name == "wave5")   return buildWave5();
    throw ConfigError("unknown SPEC FP95 model: " + name);
}

std::unique_ptr<KernelTraceSource>
makeSpecFp95Source(const std::string &name, ThreadId thread,
                   std::uint64_t seed)
{
    const std::size_t idx = specFp95Index(name);
    MTDAE_ASSERT(idx < specFp95Names().size(), "unknown benchmark ", name);
    return std::make_unique<KernelTraceSource>(
        buildSpecFp95(name), regionBase(thread, idx), pcBase(idx),
        sourceSeed(seed, thread, idx));
}

std::unique_ptr<SequenceTraceSource>
makeSuiteMixSource(ThreadId thread, std::uint64_t seed,
                   std::uint64_t segment_insts)
{
    const auto &names = specFp95Names();
    std::vector<std::unique_ptr<KernelTraceSource>> sources;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::size_t idx = (i + thread) % names.size();
        sources.push_back(makeSpecFp95Source(names[idx], thread, seed));
    }
    return std::make_unique<SequenceTraceSource>(std::move(sources),
                                                 segment_insts);
}

namespace {

/** One benchmark on every context (the Figure 1 workload shape). */
class BenchmarkFactory : public TraceSourceFactory
{
  public:
    explicit BenchmarkFactory(std::string bench)
        : bench_(std::move(bench))
    {
        // Reject unknown names at construction, not inside a worker;
        // a bad name is a user error, so a ConfigError, not a panic.
        const auto &names = specFp95Names();
        if (std::find(names.begin(), names.end(), bench_) ==
            names.end())
            throw ConfigError("unknown benchmark '" + bench_ + "'");
    }

    std::vector<std::unique_ptr<TraceSource>>
    make(std::uint32_t num_threads, std::uint64_t seed) const override
    {
        std::vector<std::unique_ptr<TraceSource>> sources;
        for (ThreadId t = 0; t < num_threads; ++t)
            sources.push_back(makeSpecFp95Source(bench_, t, seed));
        return sources;
    }

    std::unique_ptr<TraceSourceFactory>
    clone() const override
    {
        return std::make_unique<BenchmarkFactory>(bench_);
    }

    const std::string &name() const override { return bench_; }

  private:
    std::string bench_;
};

/** The rotated full-suite workload of the paper's Section 3. */
class SuiteMixFactory : public TraceSourceFactory
{
  public:
    explicit SuiteMixFactory(std::uint64_t segment_insts)
        : segmentInsts_(segment_insts)
    {}

    std::vector<std::unique_ptr<TraceSource>>
    make(std::uint32_t num_threads, std::uint64_t seed) const override
    {
        std::vector<std::unique_ptr<TraceSource>> sources;
        for (ThreadId t = 0; t < num_threads; ++t)
            sources.push_back(
                makeSuiteMixSource(t, seed, segmentInsts_));
        return sources;
    }

    std::unique_ptr<TraceSourceFactory>
    clone() const override
    {
        return std::make_unique<SuiteMixFactory>(segmentInsts_);
    }

    const std::string &name() const override { return name_; }

    std::string
    fingerprint() const override
    {
        // The segment length parameterises the trace, so two mixes
        // with different segment sizes must never share a warm-start
        // prefix even though their display names coincide.
        return name_ + "@" + std::to_string(segmentInsts_);
    }

  private:
    std::uint64_t segmentInsts_;
    std::string name_ = "suite-mix";
};

} // namespace

std::unique_ptr<TraceSourceFactory>
makeBenchmarkFactory(const std::string &name)
{
    return std::make_unique<BenchmarkFactory>(name);
}

std::unique_ptr<TraceSourceFactory>
makeSuiteMixFactory(std::uint64_t segment_insts)
{
    return std::make_unique<SuiteMixFactory>(segment_insts);
}

} // namespace mtdae
