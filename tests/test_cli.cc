/**
 * @file
 * Tests of the unified `mtdae` experiment CLI: argument parsing, config
 * overrides, error paths and an end-to-end smoke run of the quickstart
 * configuration.
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "harness/cli.hh"
#include "test_util.hh"

using namespace mtdae;
using cli::Options;

namespace {

/** Parse and expect success. */
Options
parseOk(const std::vector<std::string> &args)
{
    Options opts;
    std::string error;
    const bool ok = cli::parseArgs(args, opts, error);
    EXPECT_TRUE(ok) << error;
    return opts;
}

/** Parse and return the error message (expects failure). */
std::string
parseErr(const std::vector<std::string> &args)
{
    Options opts;
    std::string error;
    EXPECT_FALSE(cli::parseArgs(args, opts, error));
    EXPECT_FALSE(error.empty());
    return error;
}

} // namespace

TEST(CliParse, ExperimentAndDefaults)
{
    const Options opts = parseOk({"fig4"});
    EXPECT_EQ(opts.experiment, "fig4");
    EXPECT_EQ(opts.format, Options::Format::Csv);
    EXPECT_TRUE(opts.scaleQueues);
    EXPECT_FALSE(opts.quiet);
    EXPECT_EQ(opts.insts, 0u);
    EXPECT_TRUE(opts.benchmarks.empty());
    EXPECT_TRUE(opts.overrides.empty());
}

TEST(CliParse, OptionsAndLists)
{
    const Options opts = parseOk({"fig1", "--insts=5000", "--json",
                                  "--quiet", "--no-scale",
                                  "--bench=tomcatv,swim",
                                  "--threads-list=1,2,4",
                                  "--latencies=1,64"});
    EXPECT_EQ(opts.experiment, "fig1");
    EXPECT_EQ(opts.format, Options::Format::Json);
    EXPECT_TRUE(opts.quiet);
    EXPECT_FALSE(opts.scaleQueues);
    EXPECT_EQ(opts.insts, 5000u);
    ASSERT_EQ(opts.benchmarks.size(), 2u);
    EXPECT_EQ(opts.benchmarks[0], "tomcatv");
    EXPECT_EQ(opts.threads, (std::vector<std::uint32_t>{1, 2, 4}));
    EXPECT_EQ(opts.latencies, (std::vector<std::uint32_t>{1, 64}));
}

TEST(CliParse, ConfigOverridesRecordedAndApplied)
{
    const Options opts = parseOk({"run", "--threads=4",
                                  "--decoupled=false", "--mshrs=8",
                                  "--predictor=gshare", "--seed=42"});
    ASSERT_EQ(opts.overrides.size(), 5u);

    SimConfig cfg;
    std::string error;
    ASSERT_TRUE(cli::applyOverrides(cfg, opts, error)) << error;
    EXPECT_EQ(cfg.numThreads, 4u);
    EXPECT_FALSE(cfg.decoupled);
    EXPECT_EQ(cfg.mshrs, 8u);
    EXPECT_EQ(cfg.predictor, SimConfig::PredictorKind::Gshare);
    EXPECT_EQ(cfg.seed, 42u);
}

TEST(CliParse, RejectsUnknownAndMalformedFlags)
{
    EXPECT_NE(parseErr({"run", "--no-such-knob=3"}).find("no-such-knob"),
              std::string::npos);
    EXPECT_NE(parseErr({"run", "--threads=banana"}).find("banana"),
              std::string::npos);
    EXPECT_NE(parseErr({"run", "--frobnicate"}).find("frobnicate"),
              std::string::npos);
    EXPECT_EQ(parseErr({"run", "--fetch-policy=bogus"}),
              "bad value 'bogus' for --fetch-policy");
    parseErr({"run", "--insts=0"});
    parseErr({"run", "--format=xml"});
    parseErr({"run", "--latencies=1,x"});
    parseErr({"fig1", "extra-positional"});
}

TEST(CliParse, EveryDocumentedKeyIsSettable)
{
    // Each key takes every value test::knobSpellings() draws from its
    // knob's row: the ends of its range, both bools, every enum kind.
    for (const auto &key : cli::overrideKeys()) {
        const Knob *k = findKnob(key == "warmup-insts" ? "warmup" : key);
        ASSERT_NE(k, nullptr) << key;
        for (const std::string &value : test::knobSpellings(*k)) {
            SimConfig cfg;
            std::string error;
            EXPECT_TRUE(cli::applyOverride(cfg, key, value, error))
                << key << "=" << value << ": " << error;
        }
    }
}

TEST(CliRegistry, PaperExperimentsRegistered)
{
    for (const char *name : {"run", "fig1", "fig3", "fig4", "fig5",
                             "fig4-dram", "ablate-l2", "ablate-iq",
                             "ablate-mshrs"})
        EXPECT_TRUE(cli::isExperiment(name)) << name;
    EXPECT_FALSE(cli::isExperiment("fig2"));
    EXPECT_FALSE(cli::isExperiment(""));
    EXPECT_GE(cli::experiments().size(), 12u);
}

TEST(CliDriver, PerfectL2FlagReproducesFixedLatencyModelByteForByte)
{
    // The paper-model experiments default to the perfect L2, and
    // tests/test_l2.cc pins that model to the pre-finite-L2 timing
    // formula — so flag and default must be byte-identical output.
    const std::vector<std::string> common = {
        "fig4",           "--insts=800",         "--warmup=200",
        "--quiet",        "--json",              "--seed=7",
        "--threads-list=1,2", "--latencies=1,64"};
    std::ostringstream out1, err1, out2, err2;
    ASSERT_EQ(cli::runCli(common, out1, err1), 0);
    auto with_flag = common;
    with_flag.push_back("--perfect-l2");
    ASSERT_EQ(cli::runCli(with_flag, out2, err2), 0);
    EXPECT_EQ(out1.str(), out2.str());
    EXPECT_FALSE(out1.str().empty());
}

TEST(CliDriver, ExplicitDefaultPoliciesReproduceTheDefaultsByteForByte)
{
    // icount/round-robin are the paper's machine: naming them must not
    // change a byte of the default output.
    const std::vector<std::string> common = {
        "fig4",  "--insts=800", "--warmup=200", "--quiet",
        "--json", "--threads-list=1,2", "--latencies=1,64"};
    std::ostringstream out1, err1, out2, err2;
    ASSERT_EQ(cli::runCli(common, out1, err1), 0);
    auto explicit_flags = common;
    explicit_flags.insert(explicit_flags.end(),
                          {"--fetch-policy=icount",
                           "--issue-policy=round-robin"});
    ASSERT_EQ(cli::runCli(explicit_flags, out2, err2), 0);
    EXPECT_EQ(out1.str(), out2.str());
    EXPECT_FALSE(out1.str().empty());
}

TEST(CliDriver, BarePerfectL2FlagParses)
{
    cli::Options opts;
    std::string error;
    ASSERT_TRUE(cli::parseArgs({"run", "--perfect-l2"}, opts, error))
        << error;
    SimConfig cfg;
    cfg.perfectL2 = false;
    ASSERT_TRUE(cli::applyOverrides(cfg, opts, error)) << error;
    EXPECT_TRUE(cfg.perfectL2);
}

TEST(CliDriver, AblateL2RunsOnTheRealBackend)
{
    std::ostringstream out, err;
    const int rc = cli::runCli({"ablate-l2", "--insts=400",
                                "--warmup=100", "--quiet", "--json",
                                "--threads-list=1"},
                               out, err);
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.str().find("\"experiment\": \"ablate_l2\""),
              std::string::npos);
    EXPECT_NE(out.str().find("\"l2_miss\""), std::string::npos);
    // The l2_kb = 0 perfect-L2 reference row rides along.
    EXPECT_NE(out.str().find("\"l2_kb\": 0"), std::string::npos);
}

TEST(CliDriver, Fig4DramSweepsDramSlowdowns)
{
    std::ostringstream out, err;
    const int rc = cli::runCli({"fig4-dram", "--insts=400",
                                "--warmup=100", "--quiet", "--json",
                                "--threads-list=1", "--latencies=1,4"},
                               out, err);
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.str().find("\"experiment\": \"fig4_dram\""),
              std::string::npos);
    EXPECT_NE(out.str().find("\"dram_scale\": 4"), std::string::npos);
    EXPECT_NE(out.str().find("\"avg_fill\""), std::string::npos);
}

TEST(CliDriver, UnknownExperimentFailsWithUsageHint)
{
    std::ostringstream out, err;
    EXPECT_EQ(cli::runCli({"bogus"}, out, err), 2);
    EXPECT_NE(err.str().find("unknown experiment 'bogus'"),
              std::string::npos);
    EXPECT_NE(err.str().find("mtdae list"), std::string::npos);
}

TEST(CliDriver, UnknownBenchmarkFailsCleanly)
{
    std::ostringstream out, err;
    EXPECT_EQ(cli::runCli({"run", "--bench=nonexistent"}, out, err), 2);
    EXPECT_NE(err.str().find("unknown benchmark 'nonexistent'"),
              std::string::npos);
    EXPECT_NE(err.str().find("suite-mix"), std::string::npos);
}

TEST(CliDriver, SuiteMixOnlyValidForRun)
{
    // Only `run` drives the suite mix; fig1 must reject it as a usage
    // error instead of tripping the workload-layer assertion.
    std::ostringstream out, err;
    EXPECT_EQ(cli::runCli({"fig1", "--bench=suite-mix"}, out, err), 2);
    EXPECT_NE(err.str().find("unknown benchmark 'suite-mix'"),
              std::string::npos);
}

TEST(CliParse, RejectsNegativeAndOverflowingNumbers)
{
    parseErr({"run", "--warmup=-1"});
    parseErr({"run", "--insts=-5"});
    parseErr({"run", "--seed=99999999999999999999999"});
    parseErr({"run", "--threads= 4"});
}

TEST(CliDriver, UncreatableOutDirFailsBeforeRunning)
{
    const std::string file = ::testing::TempDir() + "mtdae_not_a_dir";
    std::ofstream(file).put('x');  // a plain file blocks mkdir
    std::ostringstream out, err;
    EXPECT_EQ(cli::runCli({"run", "--insts=500", "--quiet",
                           "--out=" + file + "/sub"},
                          out, err), 2);
    EXPECT_NE(err.str().find("cannot create output directory"),
              std::string::npos);
    std::remove(file.c_str());
}

TEST(CliDriver, JsonModeKeepsStdoutParseable)
{
    // Without --quiet the table must go to stderr, leaving stdout as a
    // single JSON document.
    std::ostringstream out, err;
    const int rc = cli::runCli({"run", "--insts=500", "--warmup=100",
                                "--json", "--bench=tomcatv"},
                               out, err);
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(out.str().front(), '{');
    EXPECT_NE(err.str().find("== run =="), std::string::npos);
}

TEST(CliDriver, BadFlagFails)
{
    std::ostringstream out, err;
    EXPECT_EQ(cli::runCli({"fig1", "--threads=NaN"}, out, err), 2);
    EXPECT_NE(err.str().find("NaN"), std::string::npos);
}

TEST(CliDriver, InvalidMachineIsAUsageError)
{
    // A value outside its knob's range is refused while parsing; one
    // that parses but describes no buildable machine is rejected by
    // SimConfig::validate() before any job runs. Either way runCli
    // reports the message and returns 2 instead of exiting the process.
    const std::string usage = "run 'mtdae help' for usage\n";
    const std::vector<std::pair<std::vector<std::string>, std::string>>
        cases = {
            {{"fig4", "--iq-entries=0"},
             "bad value '0' for --iq-entries: iqEntries must be in "
             "1..65536\n" + usage},
            {{"fig4", "--threads=0"},
             "bad value '0' for --threads: numThreads must be in "
             "1..256\n" + usage},
            {{"ablate-l2", "--l2-size=1000"},
             "l2Bytes must be a multiple of l1LineBytes * l2Assoc\n"},
            {{"run", "--graduate-width=0"},
             "bad value '0' for --graduate-width: graduateWidth must be "
             "in 1..1024\n" + usage},
            {{"run", "--fetch-buffer=0"},
             "bad value '0' for --fetch-buffer: fetchBufferSize must be in "
             "1..65536\n" + usage},
            {{"run", "--l1-ports=0"},
             "bad value '0' for --l1-ports: l1Ports must be in "
             "1..1024\n" + usage},
            {{"run", "--max-branches=0"},
             "bad value '0' for --max-branches: maxUnresolvedBranches "
             "must be in 1..1024\n" + usage},
            {{"run", "--predictor=gshare", "--gshare-bits=0"},
             "bad value '0' for --gshare-bits: gshareHistoryBits must be "
             "in 1..32\n" + usage},
            {{"run", "--predictor=gshare", "--gshare-bits=40"},
             "bad value '40' for --gshare-bits: gshareHistoryBits must be "
             "in 1..32\n" + usage},
            {{"run", "--l1-line=24"},
             "bad value '24' for --l1-line: l1LineBytes must be a power "
             "of two in 1..4096\n" + usage},
            {{"run", "--thread-weights=4,0"},
             "bad value '0' for --thread-weights: threadWeights entries "
             "must be in 1..4294967295\n" + usage},
            // A known policy on the wrong seam: the message lists the
            // seam's valid policies.
            {{"run", "--fetch-policy=split"},
             "'split' is not a fetch policy (valid: icount, round-robin, "
             "brcount, misscount, stall, flush, adaptive, weighted)\n"},
            {{"run", "--issue-policy=stall"},
             "'stall' is not a dispatch/issue policy (valid: icount, "
             "round-robin, brcount, misscount, split, weighted)\n"},
        };
    for (auto [args, message] : cases) {
        args.insert(args.end(), {"--insts=100", "--quiet", "--json"});
        std::ostringstream out, err;
        EXPECT_EQ(cli::runCli(args, out, err), 2) << args[1];
        EXPECT_EQ(err.str(), "mtdae: " + message);
        EXPECT_TRUE(out.str().empty());
    }
}

/**
 * Values that used to abort the run ("pipeline deadlock") or run on a
 * wrapped DRAM timing: each is refused as a usage error naming its flag.
 */
TEST(CliDriver, OutOfRangeLatenciesAreUsageErrors)
{
    const std::string huge = "4294967295";
    const std::vector<std::vector<std::string>> cases = {
        {"run", "--l2-latency=1000000"},
        {"run", "--ap-latency=" + huge},
        {"run", "--ep-latency=" + huge},
        {"run", "--l1-hit-latency=" + huge},
        {"run", "--perfect-l2=0", "--dram-cas=" + huge},
        {"run", "--perfect-l2=0", "--dram-bus-cycles=" + huge},
        {"fig4-dram", "--latencies=1", "--dram-ras=" + huge},
        {"fig4", "--latencies=" + std::to_string(kMaxLatency + 1)},
    };
    for (auto args : cases) {
        const std::string flag = args.back().substr(0, args.back().find('='));
        args.insert(args.end(), {"--threads-list=2", "--insts=300",
                                 "--warmup=0", "--quiet", "--json"});
        std::ostringstream out, err;
        EXPECT_EQ(cli::runCli(args, out, err), 2) << flag;
        EXPECT_NE(err.str().find(flag), std::string::npos) << err.str();
        EXPECT_TRUE(out.str().empty());
    }
}

TEST(CliDriver, NoArgsPrintsUsage)
{
    std::ostringstream out, err;
    EXPECT_EQ(cli::runCli({}, out, err), 2);
    EXPECT_NE(err.str().find("usage: mtdae"), std::string::npos);
}

TEST(CliDriver, HelpAndListSucceed)
{
    std::ostringstream out, err;
    EXPECT_EQ(cli::runCli({"help"}, out, err), 0);
    EXPECT_NE(out.str().find("usage: mtdae"), std::string::npos);
    EXPECT_NE(out.str().find("--iq-entries"), std::string::npos);

    std::ostringstream out2, err2;
    EXPECT_EQ(cli::runCli({"list"}, out2, err2), 0);
    EXPECT_NE(out2.str().find("fig4"), std::string::npos);
}

TEST(CliDriver, SmokeRunQuickstartConfigJson)
{
    // The quickstart machine (1T, decoupled, L2=16), tiny budget.
    std::ostringstream out, err;
    const int rc =
        cli::runCli({"run", "--insts=500", "--warmup=100", "--quiet",
                     "--json", "--bench=tomcatv"},
                    out, err);
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.str().find("\"experiment\": \"run\""),
              std::string::npos);
    EXPECT_NE(out.str().find("\"benchmark\": \"tomcatv\""),
              std::string::npos);
    EXPECT_NE(out.str().find("\"ipc\": "), std::string::npos);
}

TEST(CliDriver, CsvRunWritesResultFile)
{
    const std::string dir = ::testing::TempDir() + "mtdae_cli_csv";
    std::ostringstream out, err;
    const int rc = cli::runCli({"run", "--insts=500", "--warmup=100",
                                "--quiet", "--out=" + dir},
                               out, err);
    EXPECT_EQ(rc, 0);
    const std::string path = dir + "/run.csv";
    std::ifstream f(path);
    ASSERT_TRUE(f.good()) << path;
    std::string header;
    std::getline(f, header);
    EXPECT_NE(header.find("benchmark,"), std::string::npos);
    std::string row;
    EXPECT_TRUE(std::getline(f, row));
    std::remove(path.c_str());
}

TEST(CliJson, QuotingByNumericness)
{
    cli::ResultSet rs;
    rs.name = "demo";
    rs.header = {"name", "value"};
    rs.rows = {{"tomcatv", "2.5"}, {"a\"b", "x"}};
    std::ostringstream os;
    cli::writeJson(rs, os);
    const std::string s = os.str();
    EXPECT_NE(s.find("\"name\": \"tomcatv\", \"value\": 2.5"),
              std::string::npos);
    EXPECT_NE(s.find("\"a\\\"b\""), std::string::npos);
    EXPECT_NE(s.find("\"x\""), std::string::npos);
}
