/**
 * @file
 * Tests of the kernel corpus and the DSL factory (src/workload/dsl/):
 * every .mk file in examples/kernels/ compiles and simulates through
 * the CLI, the three kernels outside the built-in models (pointer_chase,
 * hash_join, stencil) have the structure their files promise, and the
 * param-override surface and factory identity behave. The built-in
 * models' traces are pinned in tests/golden/builtin_traces.csv
 * (tests/test_kernel.cc).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "test_util.hh"
#include "workload/dsl/interp.hh"
#include "workload/dsl/lexer.hh"

using namespace mtdae;

namespace {

std::string
kernelPath(const std::string &name)
{
    return std::string(MTDAE_SOURCE_DIR) + "/examples/kernels/" + name +
           ".mk";
}

} // namespace

// ---------------------------------------------------------------------
// The kernel corpus.
// ---------------------------------------------------------------------

TEST(DslCorpus, PointerChaseUsesChainStream)
{
    const Kernel k = dsl::compileKernel(test::slurp(kernelPath("pointer_chase")));
    EXPECT_EQ(k.name, "pointer_chase");
    ASSERT_EQ(k.streams.size(), 1u);
    EXPECT_EQ(k.streams[0].kind, StreamSpec::Kind::Chain);
    EXPECT_EQ(k.streams[0].footprint, 1u << 20);
    EXPECT_EQ(k.streams[0].elemBytes, 16u);
    // unroll=4 hops, each: loadi + ilogic + loadf + fadd + advance.
    const Kernel::Mix m = k.mix();
    EXPECT_EQ(m.loads, 8u);
    EXPECT_EQ(m.fpOps, 4u);
}

TEST(DslCorpus, HashJoinLoadsFeedTheirOwnAddress)
{
    const Kernel k = dsl::compileKernel(test::slurp(kernelPath("hash_join")));
    // The bucket loads write the gather's own index register: a true
    // load-to-address dependence.
    bool self_dep_load = false;
    for (const auto &op : k.ops)
        if (op.op == Opcode::LdI && op.stream >= 0 && op.dst >= 0 &&
            op.dst == k.streams[op.stream].addrReg)
            self_dep_load = true;
    EXPECT_TRUE(self_dep_load);
    // The hit branch skips the conflict-chain walk.
    bool skipping_branch = false;
    for (const auto &op : k.ops)
        skipping_branch |= op.op == Opcode::Br && op.skip == 2;
    EXPECT_TRUE(skipping_branch);
    EXPECT_EQ(k.ops.back().backedge, true);
}

TEST(DslCorpus, StencilConditionalsResolveAtCompileTime)
{
    const std::string text = test::slurp(kernelPath("stencil"));
    // Default taps=3 takes the else arm: exactly one store.
    const Kernel k3 = dsl::compileKernel(text);
    EXPECT_EQ(k3.mix().stores, 1u);
    // taps=5 takes the then arm (extra fadd) and unrolls more index
    // bookkeeping rows (ceil(5/2)=3 vs ceil(3/2)=2).
    const Kernel k5 = dsl::compileKernel(text, {{"taps", 5}});
    EXPECT_EQ(k5.mix().stores, 1u);
    EXPECT_EQ(k5.mix().fpOps, k3.mix().fpOps + 1);
    EXPECT_EQ(k5.mix().intOps, k3.mix().intOps + 2);
    // passes=2 doubles the sweep body.
    const Kernel k2p = dsl::compileKernel(text, {{"passes", 2}});
    EXPECT_EQ(k2p.mix().stores, 2u);
    EXPECT_EQ(k2p.mix().loads, 2 * k3.mix().loads);
}

TEST(DslCorpus, EveryCorpusKernelValidatesAndRuns)
{
    std::vector<std::filesystem::path> files;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::string(MTDAE_SOURCE_DIR) + "/examples/kernels"))
        if (entry.path().extension() == ".mk")
            files.push_back(entry.path());
    ASSERT_GE(files.size(), 13u);
    for (const auto &path : files) {
        auto f = dsl::makeDslFactory(test::slurp(path.string()));
        auto sources = f->make(1, 1);
        ASSERT_EQ(sources.size(), 1u);
        TraceInst inst;
        for (int n = 0; n < 5000; ++n)
            ASSERT_TRUE(sources[0]->next(inst)) << path;
        // Parse, compile and simulate it the way a user runs a file.
        std::string out;
        EXPECT_EQ(test::cli({"run", "--bench=dsl",
                             "--kernel-file=" + path.string(),
                             "--insts=2000", "--warmup=500", "--quiet",
                             "--out=" + ::testing::TempDir() +
                                 "mtdae_corpus"},
                            out),
                  0)
            << path;
    }
}

// ---------------------------------------------------------------------
// Param overrides.
// ---------------------------------------------------------------------

TEST(DslParams, OverrideRescalesTheFootprint)
{
    const std::string text = test::slurp(kernelPath("pointer_chase"));
    const Kernel small = dsl::compileKernel(text, {{"footprint", 64 * 1024}});
    EXPECT_EQ(small.streams[0].footprint, 64u * 1024);
    const Kernel more = dsl::compileKernel(text, {{"unroll", 8}});
    EXPECT_EQ(more.mix().loads, 16u);
}

TEST(DslParams, OverridesChangeTheFingerprint)
{
    const std::string text = test::slurp(kernelPath("pointer_chase"));
    auto base = dsl::makeDslFactory(text);
    auto scaled = dsl::makeDslFactory(text, {{"footprint", 64 * 1024}});
    EXPECT_NE(base->fingerprint(), scaled->fingerprint());
    // Fingerprints are canonical: value spelling does not matter.
    auto same = dsl::makeDslFactory(text, {{"footprint", 1 << 20}});
    EXPECT_EQ(base->fingerprint(), same->fingerprint());
    // The text is folded in too: a kernel of the same name but other
    // text never shares a warm-start prefix with this one.
    EXPECT_NE(base->fingerprint(), base->name());
    EXPECT_NE(dsl::makeDslFactory(text + "# edited\n")->fingerprint(),
              base->fingerprint());
}

TEST(DslParams, UnknownOverrideIsAnError)
{
    const std::string text = test::slurp(kernelPath("pointer_chase"));
    try {
        dsl::compileKernel(text, {{"nope", 1}});
        FAIL() << "expected DslError";
    } catch (const dsl::DslError &e) {
        EXPECT_STREQ(e.what(),
                     "0:0: unknown param 'nope' (the kernel does not "
                     "declare it)");
    }
}

TEST(DslParams, CompiledParamsReportResolvedValues)
{
    const std::string text = test::slurp(kernelPath("pointer_chase"));
    const dsl::CompiledKernel c =
        dsl::compileDsl(text, {{"unroll", 2}});
    ASSERT_EQ(c.params.size(), 3u);
    EXPECT_EQ(c.params[0].first, "footprint");
    EXPECT_EQ(c.params[0].second, double(1 << 20));
    EXPECT_EQ(c.params[2].first, "unroll");
    EXPECT_EQ(c.params[2].second, 2.0);
}

// ---------------------------------------------------------------------
// Factory cloning and determinism.
// ---------------------------------------------------------------------

TEST(DslFactory, CloneIsIndistinguishable)
{
    const std::string text = test::slurp(kernelPath("hash_join"));
    auto f = dsl::makeDslFactory(text);
    auto c = f->clone();
    EXPECT_EQ(f->name(), c->name());
    EXPECT_EQ(f->fingerprint(), c->fingerprint());
    auto sa = f->make(1, 9);
    auto sb = c->make(1, 9);
    TraceInst ia, ib;
    for (int n = 0; n < 5000; ++n) {
        ASSERT_TRUE(sa[0]->next(ia));
        ASSERT_TRUE(sb[0]->next(ib));
        ASSERT_EQ(ia.addr, ib.addr);
        ASSERT_EQ(ia.taken, ib.taken);
    }
}

TEST(DslFactory, DistinctKernelNamesGetDistinctSlots)
{
    auto a = dsl::makeDslFactory(test::slurp(kernelPath("pointer_chase")));
    auto b = dsl::makeDslFactory(test::slurp(kernelPath("hash_join")));
    auto sa = a->make(1, 1);
    auto sb = b->make(1, 1);
    TraceInst ia, ib;
    // First memory access of each lands in a different data region.
    Addr addr_a = 0, addr_b = 0;
    while (sa[0]->next(ia))
        if (ia.addr != 0) { addr_a = ia.addr; break; }
    while (sb[0]->next(ib))
        if (ib.addr != 0) { addr_b = ib.addr; break; }
    EXPECT_NE(addr_a >> 28, addr_b >> 28);
}
