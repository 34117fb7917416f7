/**
 * @file
 * Tests of the per-stage profiling layer (src/core/profile.hh): the
 * accounting invariant (stage buckets tile the stepped wall time
 * exactly), the idle-skip probe outcome counts (one per probe made),
 * the off-by-default contract, and the byte-identity of results and
 * CLI output with and without --profile.
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/snapshot.hh"
#include "harness/cli.hh"
#include "tests/test_util.hh"
#include "workload/dsl/interp.hh"

using namespace mtdae;
using namespace mtdae::test;

namespace {

/** Every simulated-behaviour field of two RunResults must coincide;
 *  the wall-clock profile is deliberately excluded. */
void
expectSameSimulation(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.perceivedFp, b.perceivedFp);
    EXPECT_EQ(a.perceivedInt, b.perceivedInt);
    EXPECT_EQ(a.perceivedAll, b.perceivedAll);
    EXPECT_EQ(a.fpMisses, b.fpMisses);
    EXPECT_EQ(a.intMisses, b.intMisses);
    EXPECT_EQ(a.loadMissRatio, b.loadMissRatio);
    EXPECT_EQ(a.storeMissRatio, b.storeMissRatio);
    EXPECT_EQ(a.mergedRatio, b.mergedRatio);
    EXPECT_EQ(a.busUtilization, b.busUtilization);
    EXPECT_EQ(a.mispredictRate, b.mispredictRate);
    for (const SlotUse u : {SlotUse::Useful, SlotUse::WaitMem,
                            SlotUse::WaitFu, SlotUse::Idle,
                            SlotUse::Other}) {
        EXPECT_EQ(a.ap.count(u), b.ap.count(u));
        EXPECT_EQ(a.ep.count(u), b.ep.count(u));
    }
}

} // namespace

TEST(StageProfile, NamesAndIndexingCoverEveryStage)
{
    for (std::size_t s = 0; s < kNumStages; ++s)
        EXPECT_STRNE(stageName(Stage(s)), "?");
    for (std::size_t p = 0; p < kNumSkipProbes; ++p)
        EXPECT_STRNE(skipProbeName(SkipProbe(p)), "?");
    StageProfile p;
    p.ns[std::size_t(Stage::Issue)] = 42;
    EXPECT_EQ(p[Stage::Issue], 42u);
    p.reset();
    EXPECT_EQ(p[Stage::Issue], 0u);
}

TEST(Profile, DisabledByDefaultAndZero)
{
    SimConfig cfg = testConfig(2);
    Simulator sim = makeSim(cfg, streamingKernel());
    EXPECT_FALSE(sim.profilingEnabled());
    const RunResult r = sim.run(5000);
    EXPECT_FALSE(r.profile.enabled);
    EXPECT_EQ(r.profile.totalNs, 0u);
    EXPECT_EQ(r.profile.cycles, 0u);
    for (std::size_t s = 0; s < kNumStages; ++s)
        EXPECT_EQ(r.profile.ns[s], 0u);
}

TEST(Profile, SetProfilingTurnsProfilingOnAndOff)
{
    SimConfig cfg = testConfig(1);
    Simulator sim = makeSim(cfg, computeKernel());
    EXPECT_FALSE(sim.profilingEnabled());
    sim.setProfiling(true);
    EXPECT_TRUE(sim.profilingEnabled());
    sim.setProfiling(false);
    EXPECT_FALSE(sim.profilingEnabled());
}

TEST(Profile, StageBucketsTileTotalExactly)
{
    SimConfig cfg = testConfig(2);
    cfg.l2Latency = 64;
    Simulator sim = makeSim(cfg, streamingKernel());
    sim.setProfiling(true);
    const RunResult r = sim.run(5000);
    ASSERT_TRUE(r.profile.enabled);
    // resetStats clears the profile at the warmup/measure boundary, so
    // the profiled cycles are exactly the measured cycles.
    EXPECT_EQ(r.profile.cycles, r.cycles);
    EXPECT_GT(r.profile.totalNs, 0u);
    std::uint64_t sum = 0;
    for (std::size_t s = 0; s < kNumStages; ++s)
        sum += r.profile.ns[s];
    // The invariant, not an approximation: every nanosecond of the
    // stepped loop lands in exactly one bucket.
    EXPECT_EQ(sum, r.profile.totalNs);
}

TEST(Profile, SkipProbeOutcomesAddUpToTheProbesMade)
{
    // A memory-bound pointer chase, so skips fire. With cycle skip on,
    // the run loop probes once per iteration, and a probe either
    // fast-forwards a span (one skip event) or lets one cycle be
    // stepped: the outcomes add up to the stepped cycles plus the skip
    // events. Counting them changes no result and no saved state.
    const Kernel k = dsl::compileKernel(dsl::readKernelFile(
        std::string(MTDAE_SOURCE_DIR) +
        "/examples/kernels/pointer_chase.mk"));
    SimConfig cfg = testConfig(2, true, 256);
    cfg.warmupInsts = 500;
    Simulator plain = makeSim(cfg, k, 4000);
    Simulator profiled = makeSim(cfg, k, 4000);
    profiled.setProfiling(true);
    const RunResult a = plain.run(2000);
    const RunResult b = profiled.run(2000);
    expectSameSimulation(a, b);
    EXPECT_EQ(a.cyclesSkipped, b.cyclesSkipped);
    EXPECT_EQ(a.skipEvents, b.skipEvents);
    EXPECT_EQ(plain.saveSnapshot().toBytes(),
              profiled.saveSnapshot().toBytes());

    std::uint64_t probes = 0;
    for (const std::uint64_t n : b.profile.skipProbes)
        probes += n;
    EXPECT_GT(b.skipEvents, 0u);
    EXPECT_EQ(b.profile.skipProbes[std::size_t(SkipProbe::Skipped)],
              b.skipEvents);
    EXPECT_EQ(probes, b.cycles - b.cyclesSkipped + b.skipEvents);
    EXPECT_GT(b.profile.skipProbes[std::size_t(SkipProbe::NotDue)], 0u);
    for (const std::uint64_t n : a.profile.skipProbes)
        EXPECT_EQ(n, 0u) << "counted without profiling";

    // With cycle skip off no probe is made.
    cfg.cycleSkip = false;
    Simulator stepped = makeSim(cfg, k, 4000);
    stepped.setProfiling(true);
    const RunResult c = stepped.run(2000);
    expectSameSimulation(a, c);
    for (const std::uint64_t n : c.profile.skipProbes)
        EXPECT_EQ(n, 0u);
}

TEST(Profile, ProfiledRunIsByteIdenticalToUnprofiled)
{
    SimConfig cfg = testConfig(2);
    cfg.l2Latency = 64;
    Simulator plain = makeSim(cfg, streamingKernel());
    Simulator profiled = makeSim(cfg, streamingKernel());
    profiled.setProfiling(true);
    expectSameSimulation(plain.run(4000), profiled.run(4000));
}

TEST(ProfileCli, JsonProfileBlockOnlyUnderFlag)
{
    const std::vector<std::string> base = {
        "fig4", "--threads-list=1", "--latencies=1",
        "--insts=500", "--warmup=100", "--quiet", "--json"};
    std::ostringstream out_plain, out_prof, err;
    ASSERT_EQ(cli::runCli(base, out_plain, err), 0);
    std::vector<std::string> prof = base;
    prof.push_back("--profile");
    ASSERT_EQ(cli::runCli(prof, out_prof, err), 0);

    EXPECT_EQ(out_plain.str().find("\"profile\""), std::string::npos);
    EXPECT_NE(out_prof.str().find("\"profile\""), std::string::npos);
    for (std::size_t s = 0; s < kNumStages; ++s)
        EXPECT_NE(out_prof.str().find(std::string("\"") +
                                      stageName(Stage(s)) + "\": "),
                  std::string::npos);
    EXPECT_NE(out_prof.str().find("\"skip_probes\""), std::string::npos);
    // --quiet silences the stdout table, not the stderr breakdown.
    EXPECT_NE(err.str().find("profile: "), std::string::npos);
    EXPECT_NE(err.str().find("skip probes:"), std::string::npos);
    for (std::size_t p = 0; p < kNumSkipProbes; ++p)
        EXPECT_NE(out_prof.str().find(std::string("\"") +
                                      skipProbeName(SkipProbe(p)) + "\": "),
                  std::string::npos);
    // The rows themselves are byte-identical: --profile only appends
    // the profile object.
    const std::string plain = out_plain.str();
    const std::string with = out_prof.str();
    const std::string rows_key = "\"rows\": [";
    const auto p0 = plain.find(rows_key);
    const auto p1 = with.find(rows_key);
    ASSERT_NE(p0, std::string::npos);
    ASSERT_NE(p1, std::string::npos);
    const auto e0 = plain.find("  ]", p0);
    const auto e1 = with.find("  ]", p1);
    EXPECT_EQ(plain.substr(p0, e0 - p0), with.substr(p1, e1 - p1));
}

TEST(ProfileCli, CsvOutputByteIdenticalUnderProfile)
{
    const std::string dir_a = ::testing::TempDir() + "mtdae_prof_a";
    const std::string dir_b = ::testing::TempDir() + "mtdae_prof_b";
    const std::vector<std::string> base = {
        "fig4", "--threads-list=1,2", "--latencies=1,16",
        "--insts=500", "--warmup=100", "--quiet"};
    std::ostringstream out, err;
    std::vector<std::string> a = base, b = base;
    a.push_back("--out=" + dir_a);
    b.push_back("--out=" + dir_b);
    b.push_back("--profile");
    ASSERT_EQ(cli::runCli(a, out, err), 0);
    ASSERT_EQ(cli::runCli(b, out, err), 0);
    const std::string csv_a = test::slurp(dir_a + "/fig4.csv");
    const std::string csv_b = test::slurp(dir_b + "/fig4.csv");
    EXPECT_FALSE(csv_a.empty());
    EXPECT_EQ(csv_a, csv_b);
    std::remove((dir_a + "/fig4.csv").c_str());
    std::remove((dir_b + "/fig4.csv").c_str());
}

TEST(ProfileCli, ParseAndHelpKnowTheFlag)
{
    cli::Options opts;
    std::string error;
    ASSERT_TRUE(cli::parseArgs({"fig4", "--profile"}, opts, error))
        << error;
    EXPECT_TRUE(opts.profile);
    ASSERT_TRUE(cli::parseArgs({"fig4"}, opts = {}, error));
    EXPECT_FALSE(opts.profile);
    std::ostringstream os;
    cli::printHelp(os);
    EXPECT_NE(os.str().find("--profile"), std::string::npos);
}

TEST(ProfileCli, WarmStartSweepStillProfilesEveryJob)
{
    // The warm-start path (runMeasured) must profile too, and the
    // aggregate must come out identical in rows either way.
    std::ostringstream out_cold, out_warm, err;
    const std::vector<std::string> base = {
        "ablate-checkpoint", "--threads-list=1,2", "--insts=400",
        "--warmup=200", "--quiet", "--json", "--profile"};
    std::vector<std::string> cold = base, warm = base;
    cold.push_back("--warm-start=0");
    warm.push_back("--warm-start=1");
    ASSERT_EQ(cli::runCli(cold, out_cold, err), 0);
    ASSERT_EQ(cli::runCli(warm, out_warm, err), 0);
    const auto rows_of = [](const std::string &s) {
        const auto b = s.find("\"rows\": [");
        const auto e = s.find("  ]", b);
        return s.substr(b, e - b);
    };
    EXPECT_EQ(rows_of(out_cold.str()), rows_of(out_warm.str()));
    EXPECT_NE(out_cold.str().find("\"profile\""), std::string::npos);
    EXPECT_NE(out_warm.str().find("\"profile\""), std::string::npos);
}
