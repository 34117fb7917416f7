/**
 * @file
 * Unit tests for the kernel DSL and the ten SPEC FP95 benchmark models:
 * structural validation, instruction-mix census, and the per-model
 * behavioural signatures the workload layer promises (see the
 * src/workload/kernel.hh header comment).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>

#include "common/serialize.hh"
#include "tests/test_util.hh"
#include "workload/kernel.hh"
#include "workload/spec_fp95.hh"

using namespace mtdae;

TEST(KernelBuilder, BuildsAValidLoop)
{
    KernelBuilder b;
    auto s = b.strided(1024 * 1024, 8);
    const int x = b.ldf(s);
    const int y = b.fop(Opcode::FAdd, x, x);
    b.stf(s, y);
    b.advance(s);
    const Kernel k = b.build("k");
    EXPECT_EQ(k.name, "k");
    // ldf, fadd, stf, iadd + loop update + back-edge.
    EXPECT_EQ(k.ops.size(), 6u);
    EXPECT_TRUE(k.ops.back().backedge);
    EXPECT_EQ(k.ops.back().op, Opcode::Br);
}

TEST(KernelBuilder, MixCensus)
{
    KernelBuilder b;
    auto s = b.strided(1 << 20, 8);
    const int x = b.ldf(s);
    const int y = b.fop(Opcode::FMul, x, x);
    b.stf(s, y);
    b.advance(s);
    const Kernel k = b.build("mix");
    const Kernel::Mix m = k.mix();
    EXPECT_EQ(m.loads, 1u);
    EXPECT_EQ(m.stores, 1u);
    EXPECT_EQ(m.fpOps, 1u);
    EXPECT_EQ(m.intOps, 2u);    // advance + loop update
    EXPECT_EQ(m.branches, 1u);  // back-edge
    EXPECT_EQ(m.total, 6u);
}

TEST(KernelBuilder, SharedAddressRegisters)
{
    KernelBuilder b;
    auto a = b.strided(1 << 20, 8);
    auto c = b.stridedShared(1 << 20, 8, a.addrReg);
    EXPECT_EQ(a.addrReg, c.addrReg);
    EXPECT_NE(a.id, c.id);
    const int x = b.ldf(a);
    const int y = b.ldf(c);
    b.fop(Opcode::FAdd, x, y);
    b.advance(a);
    EXPECT_NO_FATAL_FAILURE(b.build("shared"));
}

TEST(KernelBuilder, GatherUsesIndexRegister)
{
    KernelBuilder b;
    auto sI = b.strided(1 << 20, 8);
    const int idx = b.ldi(sI);
    auto g = b.gather(1 << 16, idx);
    EXPECT_EQ(g.addrReg, idx);
    const int v = b.ldf(g);
    b.fop(Opcode::FMul, v, v);
    b.advance(sI);
    const Kernel k = b.build("gather");
    EXPECT_EQ(k.streams[g.id].kind, StreamSpec::Kind::Gather);
}

TEST(KernelBuilder, CrossMovesTypeCorrectly)
{
    KernelBuilder b;
    const int i = b.intReg();
    const int f = b.movif(i);
    const int j = b.movfi(f);
    b.iopInto(Opcode::IAdd, i, j);
    const Kernel k = b.build("moves");
    EXPECT_EQ(k.ops[0].op, Opcode::MovIF);
    EXPECT_EQ(k.ops[1].op, Opcode::MovFI);
}

TEST(KernelDeath, RejectsMissingBackedge)
{
    Kernel k;
    k.name = "bad";
    k.numIntRegs = 1;
    KOp op;
    op.op = Opcode::IAdd;
    op.dst = 0;
    op.src0 = 0;
    k.ops.push_back(op);
    EXPECT_DEATH(k.validate(), "back-edge");
}

TEST(KernelDeath, RejectsOutOfRangeRegister)
{
    KernelBuilder b;
    const int i = b.intReg();
    b.iopInto(Opcode::IAdd, i, i);
    Kernel k = b.build("oob");
    k.ops[0].src0 = 25;  // beyond numIntRegs
    EXPECT_DEATH(k.validate(), "out of range");
}

TEST(KernelDeath, RejectsSkipPastEnd)
{
    KernelBuilder b;
    const int i = b.intReg();
    b.iopInto(Opcode::ICmp, i, i);
    b.br(i, 0.5f, 10);  // skips beyond the back-edge
    EXPECT_DEATH(b.build("skip"), "skip");
}

TEST(KernelDeath, RejectsStrideBeyondFootprint)
{
    // A stride longer than the footprint would silently wrap to an
    // alias of a smaller region; validate() rejects it outright.
    KernelBuilder b;
    auto s = b.strided(1 << 12, 8);
    const int x = b.ldi(s);
    b.iopInto(Opcode::IAdd, x, x);
    Kernel k = b.build("wide");
    k.streams[0].stride = (1 << 12) + 8;
    EXPECT_DEATH(k.validate(), "stride exceeds the stream footprint");
    k.streams[0].stride = -((1 << 12) + 8);
    EXPECT_DEATH(k.validate(), "stride exceeds the stream footprint");
}

TEST(KernelBuilder, StrideUpToFootprintIsValid)
{
    // Both boundary sides: |stride| == footprint is the largest legal
    // magnitude, in either direction.
    for (const std::int64_t stride : {std::int64_t(1) << 12,
                                      -(std::int64_t(1) << 12)}) {
        KernelBuilder b;
        auto s = b.strided(1 << 12, stride);
        const int x = b.ldi(s);
        b.iopInto(Opcode::IAdd, x, x);
        const Kernel k = b.build("edge");
        EXPECT_NO_FATAL_FAILURE(k.validate());
        EXPECT_EQ(k.streams[0].stride, stride);
    }
}

TEST(KernelBuilder, ChainStreamsOwnTheirAddressRegister)
{
    KernelBuilder b;
    auto c = b.chain(1 << 16, 16);
    const int v = b.ldi(c);
    b.iopInto(Opcode::ILogic, v, v);
    b.advance(c);
    const Kernel k = b.build("chase");
    EXPECT_EQ(k.streams[c.id].kind, StreamSpec::Kind::Chain);
    EXPECT_EQ(k.streams[c.id].elemBytes, 16u);
    EXPECT_GE(c.addrReg, 0);
    EXPECT_NO_FATAL_FAILURE(k.validate());
}

TEST(KernelDeath, RejectsZeroStride)
{
    KernelBuilder b;
    auto s = b.strided(1 << 20, 8);
    const int x = b.ldi(s);
    b.iopInto(Opcode::IAdd, x, x);
    Kernel k = b.build("stride");
    k.streams[0].stride = 0;
    EXPECT_DEATH(k.validate(), "stride");
}

// ---------------------------------------------------------------------
// The ten SPEC FP95 models.
// ---------------------------------------------------------------------

TEST(SpecFp95, TenBenchmarksInPaperOrder)
{
    const auto &names = specFp95Names();
    ASSERT_EQ(names.size(), 10u);
    EXPECT_EQ(names.front(), "tomcatv");
    EXPECT_EQ(names.back(), "wave5");
}

class SpecModelTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SpecModelTest, ValidatesAndHasLoopStructure)
{
    const Kernel k = buildSpecFp95(GetParam());
    EXPECT_EQ(k.name, GetParam());
    EXPECT_NO_FATAL_FAILURE(k.validate());
    EXPECT_TRUE(k.ops.back().backedge);
    EXPECT_FALSE(k.streams.empty());
}

TEST_P(SpecModelTest, HasFpWorkAndMemoryTraffic)
{
    const Kernel::Mix m = buildSpecFp95(GetParam()).mix();
    EXPECT_GT(m.loads, 0u);
    EXPECT_GT(m.fpOps, 0u);
    // FP95 codes are FP-heavy but not FP-only: the EP share of the body
    // sits in a plausible band.
    const double fp_frac = double(m.fpOps) / m.total;
    EXPECT_GT(fp_frac, 0.20) << GetParam();
    EXPECT_LT(fp_frac, 0.70) << GetParam();
}

TEST_P(SpecModelTest, MemoryFractionPlausible)
{
    const Kernel::Mix m = buildSpecFp95(GetParam()).mix();
    const double mem_frac = double(m.loads + m.stores) / m.total;
    EXPECT_GT(mem_frac, 0.08) << GetParam();
    EXPECT_LT(mem_frac, 0.45) << GetParam();
}

TEST_P(SpecModelTest, RegisterBudgetsWithinArchLimits)
{
    const Kernel k = buildSpecFp95(GetParam());
    EXPECT_LE(k.numIntRegs, 32);
    EXPECT_LE(k.numFpRegs, 32);
}

INSTANTIATE_TEST_SUITE_P(AllModels, SpecModelTest,
                         ::testing::ValuesIn(specFp95Names()));

TEST(SpecFp95, GatherCodesHaveGatherStreams)
{
    for (const char *name : {"su2cor", "wave5"}) {
        const Kernel k = buildSpecFp95(name);
        bool has_gather = false;
        for (const auto &s : k.streams)
            has_gather |= s.kind == StreamSpec::Kind::Gather;
        EXPECT_TRUE(has_gather) << name;
    }
}

TEST(SpecFp95, LodCodesHaveFpBranches)
{
    for (const char *name : {"fpppp", "wave5"}) {
        const Kernel k = buildSpecFp95(name);
        bool has_brf = false;
        for (const auto &op : k.ops)
            has_brf |= op.op == Opcode::BrF;
        EXPECT_TRUE(has_brf) << name;
    }
}

TEST(SpecFp95, CacheResidentCodesHaveSmallFpFootprints)
{
    // fpppp and turb3d: FP-load working sets fit comfortably in the
    // 64 KB L1 (their tiny miss ratios in paper Figure 1-c).
    for (const char *name : {"fpppp", "turb3d"}) {
        const Kernel k = buildSpecFp95(name);
        std::uint64_t fp_bytes = 0;
        for (std::size_t op_i = 0; op_i < k.ops.size(); ++op_i) {
            const KOp &op = k.ops[op_i];
            if (op.op == Opcode::LdF && op.skip == 0)
                fp_bytes += 0;  // footprints counted below per stream
        }
        for (const auto &s : k.streams)
            if (s.footprint <= 16 * 1024)
                fp_bytes += s.footprint;
        EXPECT_LT(fp_bytes, 64u * 1024) << name;
    }
}

TEST(SpecFp95, StreamingCodesHaveMultiMegabyteStreams)
{
    for (const char *name : {"tomcatv", "swim", "hydro2d", "mgrid"}) {
        const Kernel k = buildSpecFp95(name);
        std::uint64_t biggest = 0;
        for (const auto &s : k.streams)
            biggest = std::max(biggest, s.footprint);
        EXPECT_GE(biggest, 1024u * 1024) << name;
    }
}

TEST(SpecFp95, Hydro2dUsesLineSizedStrides)
{
    // The column sweep: every access a fresh line over a multi-MB
    // region — hydro2d's bandwidth signature.
    const Kernel k = buildSpecFp95("hydro2d");
    int line_strided = 0;
    for (const auto &s : k.streams)
        line_strided += s.kind == StreamSpec::Kind::Strided &&
                        s.stride >= 32 && s.footprint >= 1024 * 1024;
    EXPECT_GE(line_strided, 1);
}

namespace {

/**
 * One CSV row per built-in model: its kernel's op, stream, int- and
 * FP-register counts, and an FNV-1a digest over every TraceInst field
 * (op, pc, addr, taken, dst, srcs) that its benchmark factory emits on
 * two threads at seed 42, 20,000 instructions a thread.
 */
std::string
builtinTraceRows()
{
    std::ostringstream os;
    os << "benchmark,ops,streams,int_regs,fp_regs,trace_fnv1a\n";
    for (const std::string &name : specFp95Names()) {
        const Kernel k = buildSpecFp95(name);
        std::uint64_t digest = fnv1a(nullptr, 0);
        for (const auto &src : makeBenchmarkFactory(name)->make(2, 42)) {
            TraceInst ti;
            for (int n = 0; n < 20000; ++n) {
                EXPECT_TRUE(src->next(ti)) << name << " ended early";
                ByteWriter w;
                w.u8(std::uint8_t(ti.op));
                w.u64(ti.pc);
                w.u64(ti.addr);
                w.b(ti.taken);
                for (const RegRef &r : {ti.dst, ti.src[0], ti.src[1],
                                        ti.src[2]}) {
                    w.u8(std::uint8_t(r.cls));
                    w.u8(r.idx);
                }
                digest = fnv1a(w.data(), digest);
            }
        }
        os << name << ',' << k.ops.size() << ',' << k.streams.size()
           << ',' << k.numIntRegs << ',' << k.numFpRegs << ",0x"
           << std::hex << std::setw(16) << std::setfill('0') << digest
           << std::dec << '\n';
    }
    return os.str();
}

} // namespace

TEST(SpecFp95, BuiltinTracesMatchTheGolden)
{
    // Pins every built-in model's kernel shape and expanded trace, so a
    // change to a model's definition shows up as a diff of this file.
    const std::string got = builtinTraceRows();
    const std::string want = test::slurp(std::string(MTDAE_SOURCE_DIR) +
                                         "/tests/golden/builtin_traces.csv");
    if (got != want) {
        const std::string path =
            ::testing::TempDir() + "builtin_traces.csv";
        std::ofstream(path, std::ios::binary) << got;
        ADD_FAILURE() << "built-in traces drifted from "
                         "tests/golden/builtin_traces.csv; the recomputed "
                         "rows are in "
                      << path;
    }
}

TEST(SpecFp95, UnknownBenchmarkThrowsConfigError)
{
    // A bad name is user input: every entry point that takes a built-in
    // name reports it with a typed error the caller can show, never an
    // assertion or exit() from inside the workload library.
    EXPECT_THROW(test::withMessage([] { buildSpecFp95("nonexistent"); },
                                   "unknown benchmark 'nonexistent'"),
                 ConfigError);
    EXPECT_THROW(test::withMessage([] { makeSpecFp95Source("nope", 0, 1); },
                                   "unknown benchmark 'nope'"),
                 ConfigError);
    EXPECT_THROW(test::withMessage([] { makeBenchmarkFactory("bogus"); },
                                   "unknown benchmark 'bogus'"),
                 ConfigError);
}

TEST(SpecFp95, NamesComeFromTheEmbeddedKernelFiles)
{
    // One list of built-in names: the embedded table's, whose texts are
    // the examples/kernels/ files byte for byte.
    const auto &names = specFp95Names();
    ASSERT_EQ(builtinKernelTexts().size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        const BuiltinKernelText &b = builtinKernelTexts()[i];
        EXPECT_EQ(b.name, names[i]);
        EXPECT_EQ(b.text, test::slurp(std::string(MTDAE_SOURCE_DIR) +
                                      "/examples/kernels/" + names[i] +
                                      ".mk"));
        EXPECT_EQ(specFp95Index(names[i]), i);
    }
    EXPECT_EQ(specFp95Index("pointer_chase"), names.size());
}
