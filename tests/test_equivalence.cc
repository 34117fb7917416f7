/**
 * @file
 * The every-experiment equivalence test. For each registered `mtdae`
 * experiment it runs the experiment at a small budget, compares the
 * CSV to tests/golden/<csv-name>.csv, then reruns it with each
 * execution flag flipped (--jobs, --warm-start, --cycle-skip,
 * --profile) alone and all together, and requires the same bytes: a
 * result must not depend on how the work was split or observed. An
 * experiment without a golden file fails, so a new experiment cannot
 * ship unpinned.
 *
 * The one allowed difference: `run` reports the idle fast-forward
 * counters themselves (cycles_skipped, skip_events), which are zero
 * under --cycle-skip=off by definition.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "harness/cli.hh"
#include "test_util.hh"

namespace mtdae {
namespace {

std::string
sourcePath(const std::string &rel)
{
    return std::string(MTDAE_SOURCE_DIR) + "/" + rel;
}

/** CSV basename of an experiment ("fig4-dram" -> "fig4_dram"). */
std::string
csvName(std::string name)
{
    for (char &c : name)
        if (c == '-')
            c = '_';
    return name;
}

/**
 * The arguments that produced tests/golden/<csv-name>.csv. The four
 * paper figures keep the goldens that predate the policy layer; every
 * other experiment runs its default grid at a 1000-instruction budget.
 */
std::vector<std::string>
goldenArgs(const std::string &name)
{
    std::vector<std::string> args = {name};
    if (name == "fig1")
        args.insert(args.end(), {"--bench=tomcatv,swim",
                                 "--latencies=1,16,64"});
    else if (name == "fig3")
        args.insert(args.end(), {"--threads-list=1,2,4"});
    else if (name == "fig4")
        args.insert(args.end(), {"--threads-list=1,2",
                                 "--latencies=1,16,64"});
    else if (name == "fig5")
        args.insert(args.end(), {"--threads-list=1,2,4",
                                 "--latencies=16,64"});
    else if (name == "run")
        args.insert(args.end(), {"--bench=suite-mix,tomcatv"});
    else if (name == "ablate-dsl")
        args.insert(args.end(),
                    {"--kernel-file=" +
                         sourcePath("examples/kernels/pointer_chase.mk"),
                     "--kernel-param=footprint=64K,256K"});
    const bool figure = name == "fig1" || name == "fig3" ||
                        name == "fig4" || name == "fig5";
    if (figure)
        args.insert(args.end(), {"--insts=2000", "--warmup=500"});
    else
        args.insert(args.end(), {"--insts=1000", "--warmup=200"});
    args.push_back("--quiet");
    return args;
}

/** Run @p args into @p dir and return the CSV bytes of @p name. */
std::string
runCsv(const std::string &name, std::vector<std::string> args,
       const std::string &dir)
{
    args.push_back("--out=" + dir);
    std::string out;
    EXPECT_EQ(test::cli(args, out), 0) << name;
    return test::slurp(dir + "/" + csvName(name) + ".csv");
}

/** @p csv with the cells under the @p drop header names removed. */
std::string
dropColumns(const std::string &csv, const std::vector<std::string> &drop)
{
    std::istringstream is(csv);
    std::string line;
    std::vector<bool> keep;
    std::string out;
    while (std::getline(is, line)) {
        std::vector<std::string> cells;
        std::istringstream ls(line);
        std::string cell;
        while (std::getline(ls, cell, ','))
            cells.push_back(cell);
        if (keep.empty())
            for (const auto &h : cells)
                keep.push_back(std::find(drop.begin(), drop.end(), h) ==
                               drop.end());
        for (std::size_t c = 0; c < cells.size(); ++c)
            if (c >= keep.size() || keep[c])
                out += cells[c] + ",";
        out += "\n";
    }
    return out;
}

class Equivalence : public ::testing::TestWithParam<cli::Experiment>
{};

TEST_P(Equivalence, GoldenAndFlagFlipsAreByteIdentical)
{
    const std::string name = GetParam().name;
    const std::string want =
        test::slurp(sourcePath("tests/golden/" + csvName(name) + ".csv"));
    ASSERT_FALSE(want.empty())
        << name << " has no golden: add tests/golden/" << csvName(name)
        << ".csv and its arguments to goldenArgs()";

    const std::string dir = ::testing::TempDir() + "mtdae_equiv_" +
                            csvName(name);
    std::vector<std::string> base = goldenArgs(name);
    base.push_back("--jobs=1");
    ASSERT_EQ(runCsv(name, base, dir + "_base"), want)
        << name << ": output drifted from tests/golden";

    std::vector<std::vector<std::string>> flips = {
        {"--jobs=4"}, {"--warm-start=0"}, {"--cycle-skip=off"},
        {"--profile"}};
    std::vector<std::string> all;
    for (const auto &f : flips)
        all.insert(all.end(), f.begin(), f.end());
    flips.push_back(all);

    const std::vector<std::string> skip_cols = {"cycles_skipped",
                                                "skip_events"};
    for (std::size_t i = 0; i < flips.size(); ++i) {
        std::vector<std::string> args = base;
        args.insert(args.end(), flips[i].begin(), flips[i].end());
        std::string got =
            runCsv(name, args, dir + "_flip" + std::to_string(i));
        std::string expect = want;
        const bool skip_off =
            std::find(flips[i].begin(), flips[i].end(),
                      "--cycle-skip=off") != flips[i].end();
        if (name == "run" && skip_off) {
            got = dropColumns(got, skip_cols);
            expect = dropColumns(want, skip_cols);
        }
        std::string label;
        for (const auto &f : flips[i])
            label += " " + f;
        EXPECT_EQ(got, expect) << name << " changed under" << label;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllExperiments, Equivalence, ::testing::ValuesIn(cli::experiments()),
    [](const ::testing::TestParamInfo<cli::Experiment> &info) {
        return csvName(info.param.name);
    });

/** One wide-machine grid and the golden it must reproduce. */
struct WideCase
{
    std::string name;
    std::string golden;
    std::vector<std::string> args;
};

/**
 * Run every case with its arguments as given, and again with skipping
 * off and cold warmups, and require the golden bytes both times.
 */
void
expectWideGoldens(const std::vector<WideCase> &cases)
{
    const std::vector<std::vector<std::string>> flag_sets = {
        {}, {"--cycle-skip=off", "--warm-start=0"}};
    for (const WideCase &c : cases) {
        const std::string want =
            test::slurp(sourcePath("tests/golden/" + c.golden + ".csv"));
        ASSERT_FALSE(want.empty()) << c.golden;
        for (std::size_t i = 0; i < flag_sets.size(); ++i) {
            std::vector<std::string> args = {c.name};
            args.insert(args.end(), c.args.begin(), c.args.end());
            args.insert(args.end(), {"--jobs=1", "--quiet"});
            args.insert(args.end(), flag_sets[i].begin(), flag_sets[i].end());
            EXPECT_EQ(runCsv(c.name, args,
                             ::testing::TempDir() + "mtdae_equiv_" +
                                 c.golden + std::to_string(i)),
                      want)
                << c.golden << " drifted (flag set " << i << ")";
        }
    }
}

/**
 * Wide machines: 16 and 64 contexts sharing one L1, the regime where
 * most cycles find every MSHR busy and a ROB-head store is refused.
 * No default-grid golden goes above 4 contexts.
 */
TEST(EquivalenceWide, SixteenAndSixtyFourContextsMatchTheirGoldens)
{
    expectWideGoldens({
        {"ablate-checkpoint", "ablate_checkpoint_wide",
         {"--threads-list=16,64", "--latencies=16", "--insts=250",
          "--warmup=2000"}},
        {"ablate-policy", "ablate_policy_wide",
         {"--threads-list=16", "--insts=1000", "--warmup=200"}},
    });
}

/**
 * Machines with more contexts than one 64-bit word has bits: 72 and
 * 130 contexts on the default policies, and every fetch/issue policy
 * pair at 72, so a per-thread bitset that spans words is pinned under
 * each ranking.
 */
TEST(EquivalenceWide, MoreContextsThanOneWordMatchTheirGoldens)
{
    expectWideGoldens({
        {"ablate-checkpoint", "ablate_checkpoint_multiword",
         {"--threads-list=72,130", "--latencies=16", "--insts=250",
          "--warmup=2000"}},
        {"ablate-policy", "ablate_policy_multiword",
         {"--threads-list=72", "--insts=150", "--warmup=50"}},
    });
}

/**
 * Check `run` with @p base against tests/golden/<golden>.csv, then with
 * skipping off and cold warmups, where only the two skip columns may
 * differ. Pins where the skip engine wakes.
 */
void
expectSkipGolden(const std::string &golden,
                 const std::vector<std::string> &base)
{
    const std::string want =
        test::slurp(sourcePath("tests/golden/" + golden + ".csv"));
    ASSERT_FALSE(want.empty()) << golden;
    EXPECT_EQ(runCsv("run", base,
                     ::testing::TempDir() + "mtdae_equiv_" + golden + "0"),
              want);

    std::vector<std::string> stepped = base;
    stepped.insert(stepped.end(), {"--cycle-skip=off", "--warm-start=0"});
    const std::vector<std::string> skip_cols = {"cycles_skipped",
                                                "skip_events"};
    EXPECT_EQ(dropColumns(runCsv("run", stepped,
                                 ::testing::TempDir() + "mtdae_equiv_" +
                                     golden + "1"),
                          skip_cols),
              dropColumns(want, skip_cols));
}

/**
 * A machine whose skips fire: the pointer chase on the finite L2+DRAM
 * backend spends most cycles waiting on memory, so `run` reports
 * non-zero skip counters (most goldens' are zero).
 */
TEST(EquivalenceSkips, PointerChaseOnDramMatchesItsGolden)
{
    expectSkipGolden(
        "run_dram",
        {"run", "--bench=dsl",
         "--kernel-file=" + sourcePath("examples/kernels/pointer_chase.mk"),
         "--kernel-param=footprint=2M", "--perfect-l2=0",
         "--threads-list=1,4", "--insts=2000", "--warmup=500", "--jobs=1",
         "--quiet"});
}

/**
 * A machine stalled on memory: non-decoupled at L2=256, where ready
 * loads and ROB-head stores are refused for want of an MSHR or a frame
 * and wait for the next fill.
 */
TEST(EquivalenceSkips, StalledNonDecoupledMachineMatchesItsGolden)
{
    expectSkipGolden("run_nondecoupled",
                     {"run", "--decoupled=0", "--threads-list=1,2,4",
                      "--latencies=256", "--insts=2000", "--warmup=2000",
                      "--jobs=1", "--quiet"});
}

/**
 * A machine whose fills land more than 1,024 cycles ahead, beyond one
 * lap of the completion calendar (EventQueue::kHorizon): at L2=2048
 * most cycles are fast-forwarded to a completion that far out, which
 * no other golden schedules.
 */
TEST(EquivalenceSkips, FarFillsMatchTheirGolden)
{
    expectSkipGolden("run_far",
                     {"run", "--threads-list=1,2", "--latencies=2048",
                      "--insts=2000", "--warmup=500", "--jobs=1",
                      "--quiet"});
}

/**
 * A machine whose L1 hits take no cycles (--l1-hit-latency=0): a hit
 * is due in the cycle it issues, and completes at the next cycle's
 * writeback. The golden was written before the completion calendar.
 */
TEST(EquivalenceSkips, ZeroLatencyL1HitsMatchTheirGolden)
{
    expectSkipGolden("run_zero_hit",
                     {"run", "--threads-list=1,2", "--l1-hit-latency=0",
                      "--insts=2000", "--warmup=500", "--jobs=1",
                      "--quiet"});
}

TEST(EquivalenceSpelling, WarmupInstsAliasReproducesTheFigureGoldens)
{
    // --warmup-insts is the checkpoint docs' spelling of --warmup.
    for (const char *name : {"fig1", "fig3", "fig4", "fig5"}) {
        std::vector<std::string> args = goldenArgs(name);
        for (std::string &a : args)
            if (a.rfind("--warmup=", 0) == 0)
                a = "--warmup-insts=" + a.substr(9);
        EXPECT_EQ(runCsv(name, args,
                         ::testing::TempDir() + "mtdae_equiv_spelling"),
                  test::slurp(sourcePath("tests/golden/" +
                                         std::string(name) + ".csv")))
            << name;
    }
}

} // namespace
} // namespace mtdae
