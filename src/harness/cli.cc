#include "harness/cli.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <functional>
#include <map>
#include <ostream>
#include <sstream>
#include <sys/stat.h>

#include "common/table.hh"
#include "harness/experiment.hh"
#include "workload/dsl/interp.hh"
#include "workload/spec_fp95.hh"

namespace mtdae::cli {

namespace {

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    // strtoull accepts leading whitespace and '-' (wrapping negatives
    // to huge values); only bare digit strings are valid here.
    if (s.empty() || s[0] < '0' || s[0] > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || errno == ERANGE)
        return false;
    out = v;
    return true;
}

bool
parseU32(const std::string &s, std::uint32_t &out)
{
    std::uint64_t v = 0;
    if (!parseU64(s, v) || v > 0xffffffffull)
        return false;
    out = std::uint32_t(v);
    return true;
}

bool
parseBool(const std::string &s, bool &out)
{
    if (s == "1" || s == "true" || s == "yes" || s == "on") {
        out = true;
        return true;
    }
    if (s == "0" || s == "false" || s == "no" || s == "off") {
        out = false;
        return true;
    }
    return false;
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> parts;
    std::istringstream is(s);
    std::string part;
    while (std::getline(is, part, ','))
        if (!part.empty())
            parts.push_back(part);
    return parts;
}

bool
parseU32List(const std::string &s, std::vector<std::uint32_t> &out,
             std::string &error)
{
    out.clear();
    for (const auto &part : splitCommas(s)) {
        std::uint32_t v = 0;
        if (!parseU32(part, v)) {
            error = "bad number '" + part + "' in list '" + s + "'";
            return false;
        }
        out.push_back(v);
    }
    if (out.empty()) {
        error = "empty list '" + s + "'";
        return false;
    }
    return true;
}

/** One SimConfig override knob: apply a string value to a config. */
struct Knob
{
    std::function<bool(SimConfig &, const std::string &)> set;
};

const std::map<std::string, Knob> &
knobs()
{
    auto u32 = [](std::uint32_t SimConfig::*field) {
        return Knob{[field](SimConfig &c, const std::string &v) {
            return parseU32(v, c.*field);
        }};
    };
    auto u64 = [](std::uint64_t SimConfig::*field) {
        return Knob{[field](SimConfig &c, const std::string &v) {
            return parseU64(v, c.*field);
        }};
    };
    static const std::map<std::string, Knob> k = {
        {"threads", u32(&SimConfig::numThreads)},
        {"decoupled", Knob{[](SimConfig &c, const std::string &v) {
             return parseBool(v, c.decoupled);
         }}},
        {"ap-units", u32(&SimConfig::apUnits)},
        {"ep-units", u32(&SimConfig::epUnits)},
        {"ap-latency", u32(&SimConfig::apLatency)},
        {"ep-latency", u32(&SimConfig::epLatency)},
        {"fetch-threads", u32(&SimConfig::fetchThreadsPerCycle)},
        {"fetch-width", u32(&SimConfig::fetchWidth)},
        {"fetch-buffer", u32(&SimConfig::fetchBufferSize)},
        {"dispatch-width", u32(&SimConfig::dispatchWidth)},
        {"fetch-policy", Knob{[](SimConfig &c, const std::string &v) {
             return parsePolicy(v, c.fetchPolicy) &&
                    policyIsFetch(c.fetchPolicy);
         }}},
        {"issue-policy", Knob{[](SimConfig &c, const std::string &v) {
             return parsePolicy(v, c.issuePolicy) &&
                    policyIsIssue(c.issuePolicy);
         }}},
        {"thread-weights", Knob{[](SimConfig &c, const std::string &v) {
             std::string err;
             if (!parseU32List(v, c.threadWeights, err))
                 return false;
             for (const std::uint32_t w : c.threadWeights)
                 if (w == 0)
                     return false;
             return true;
         }}},
        {"adaptive-threshold", u32(&SimConfig::adaptiveMissThreshold)},
        {"max-branches", u32(&SimConfig::maxUnresolvedBranches)},
        {"redirect-penalty", u32(&SimConfig::redirectPenalty)},
        {"bht-entries", u32(&SimConfig::bhtEntries)},
        {"predictor", Knob{[](SimConfig &c, const std::string &v) {
             if (v == "bimodal")
                 c.predictor = SimConfig::PredictorKind::Bimodal;
             else if (v == "gshare")
                 c.predictor = SimConfig::PredictorKind::Gshare;
             else
                 return false;
             return true;
         }}},
        {"gshare-bits", u32(&SimConfig::gshareHistoryBits)},
        {"iq-entries", u32(&SimConfig::iqEntries)},
        {"apq-entries", u32(&SimConfig::apQueueEntries)},
        {"saq-entries", u32(&SimConfig::saqEntries)},
        {"rob-entries", u32(&SimConfig::robEntries)},
        {"ap-regs", u32(&SimConfig::apPhysRegs)},
        {"ep-regs", u32(&SimConfig::epPhysRegs)},
        {"graduate-width", u32(&SimConfig::graduateWidth)},
        {"l1-bytes", u32(&SimConfig::l1Bytes)},
        {"l1-line", u32(&SimConfig::l1LineBytes)},
        {"l1-ports", u32(&SimConfig::l1Ports)},
        {"mshrs", u32(&SimConfig::mshrs)},
        {"l1-hit-latency", u32(&SimConfig::l1HitLatency)},
        {"l2-latency", u32(&SimConfig::l2Latency)},
        {"bus-bytes", u32(&SimConfig::busBytesPerCycle)},
        {"perfect-l2", Knob{[](SimConfig &c, const std::string &v) {
             return parseBool(v, c.perfectL2);
         }}},
        {"l2-size", u32(&SimConfig::l2Bytes)},
        {"l2-assoc", u32(&SimConfig::l2Assoc)},
        {"l2-ports", u32(&SimConfig::l2Ports)},
        {"l2-mshrs", u32(&SimConfig::l2Mshrs)},
        {"dram-banks", u32(&SimConfig::dramBanks)},
        {"dram-row-bytes", u32(&SimConfig::dramRowBytes)},
        {"dram-cas", u32(&SimConfig::dramCas)},
        {"dram-ras", u32(&SimConfig::dramRas)},
        {"dram-precharge", u32(&SimConfig::dramPrecharge)},
        {"dram-bus-cycles", u32(&SimConfig::dramBusCycles)},
        {"seed", u64(&SimConfig::seed)},
        {"warmup", u64(&SimConfig::warmupInsts)},
        // Alias of --warmup: the checkpoint docs spell the knob out.
        {"warmup-insts", u64(&SimConfig::warmupInsts)},
        {"cycle-skip", Knob{[](SimConfig &c, const std::string &v) {
             return parseBool(v, c.cycleSkip);
         }}},
    };
    return k;
}

/** mkdir -p: create every component of @p path; true when it exists. */
bool
makeDirs(const std::string &path)
{
    std::string partial;
    for (std::size_t i = 0; i <= path.size(); ++i) {
        if (i < path.size() && path[i] != '/') {
            partial.push_back(path[i]);
            continue;
        }
        if (!partial.empty() && partial != ".")
            ::mkdir(partial.c_str(), 0755);
        if (i < path.size())
            partial.push_back('/');
    }
    struct ::stat st = {};
    return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

bool
looksNumeric(const std::string &s)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    (void)std::strtod(s.c_str(), &end);
    return end != nullptr && *end == '\0' && end != s.c_str();
}

} // namespace

bool
applyOverride(SimConfig &cfg, const std::string &key,
              const std::string &value, std::string &error)
{
    const auto it = knobs().find(key);
    if (it == knobs().end()) {
        error = "unknown config key '--" + key + "'";
        return false;
    }
    if (!it->second.set(cfg, value)) {
        error = "bad value '" + value + "' for --" + key;
        return false;
    }
    return true;
}

bool
applyOverrides(SimConfig &cfg, const Options &opts, std::string &error)
{
    for (const auto &[key, value] : opts.overrides)
        if (!applyOverride(cfg, key, value, error))
            return false;
    return true;
}

const std::vector<std::string> &
overrideKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> k;
        for (const auto &[key, knob] : knobs())
            k.push_back(key);
        return k;
    }();
    return keys;
}

bool
parseArgs(const std::vector<std::string> &args, Options &opts,
          std::string &error)
{
    SimConfig scratch;  // overrides are validated at parse time
    for (const std::string &a : args) {
        if (a == "--help" || a == "-h") {
            opts.experiment = "help";
            continue;
        }
        if (a.rfind("--", 0) != 0) {
            if (opts.experiment.empty()) {
                opts.experiment = a;
                continue;
            }
            error = "unexpected argument '" + a + "'";
            return false;
        }
        const std::string flag = a.substr(2);
        const auto eq = flag.find('=');
        const std::string key = flag.substr(0, eq);
        const bool has_value = eq != std::string::npos;
        const std::string value =
            has_value ? flag.substr(eq + 1) : std::string();

        if (key == "json" && !has_value) {
            opts.format = Options::Format::Json;
        } else if (key == "perfect-l2" && !has_value) {
            // Bare escape hatch: --perfect-l2 == --perfect-l2=true.
            opts.overrides.emplace_back("perfect-l2", "1");
        } else if (key == "csv" && !has_value) {
            opts.format = Options::Format::Csv;
        } else if (key == "quiet" && !has_value) {
            opts.quiet = true;
        } else if (key == "no-scale" && !has_value) {
            opts.scaleQueues = false;
        } else if (key == "format") {
            if (value == "csv")
                opts.format = Options::Format::Csv;
            else if (value == "json")
                opts.format = Options::Format::Json;
            else {
                error = "bad --format '" + value + "' (csv or json)";
                return false;
            }
        } else if (key == "out") {
            if (value.empty()) {
                error = "--out needs a directory";
                return false;
            }
            opts.outDir = value;
        } else if (key == "insts") {
            if (!parseU64(value, opts.insts) || opts.insts == 0) {
                error = "bad --insts '" + value + "'";
                return false;
            }
        } else if (key == "bench") {
            opts.benchmarks = splitCommas(value);
            if (opts.benchmarks.empty()) {
                error = "--bench needs a benchmark list";
                return false;
            }
        } else if (key == "kernel-file") {
            if (value.empty()) {
                error = "--kernel-file needs a path";
                return false;
            }
            opts.kernelFile = value;
        } else if (key == "kernel-param") {
            const auto peq = value.find('=');
            if (peq == std::string::npos || peq == 0 ||
                peq + 1 == value.size()) {
                error = "bad --kernel-param '" + value +
                        "' (need NAME=VALUE)";
                return false;
            }
            opts.kernelParams.emplace_back(value.substr(0, peq),
                                           value.substr(peq + 1));
        } else if (key == "threads-list") {
            if (!parseU32List(value, opts.threads, error))
                return false;
        } else if (key == "latencies") {
            if (!parseU32List(value, opts.latencies, error))
                return false;
        } else if (key == "jobs") {
            if (!parseU32(value, opts.jobs) || opts.jobs == 0) {
                error = "bad --jobs '" + value +
                        "' (need a worker count >= 1)";
                return false;
            }
        } else if (key == "profile" && !has_value) {
            opts.profile = true;
        } else if (key == "warm-start") {
            if (!has_value) {
                opts.warmStart = true;
            } else if (!parseBool(value, opts.warmStart)) {
                error = "bad --warm-start '" + value + "'";
                return false;
            }
        } else if (has_value) {
            if (!applyOverride(scratch, key, value, error))
                return false;
            opts.overrides.emplace_back(key, value);
        } else {
            error = "unknown flag '" + a + "'";
            return false;
        }
    }
    return true;
}


void
writeJson(const ResultSet &rs, std::ostream &os)
{
    os << "{\n  \"experiment\": \"" << jsonEscape(rs.name)
       << "\",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rs.rows.size(); ++i) {
        os << "    {";
        const auto &row = rs.rows[i];
        for (std::size_t c = 0; c < rs.header.size() && c < row.size();
             ++c) {
            if (c)
                os << ", ";
            os << '"' << jsonEscape(rs.header[c]) << "\": ";
            if (looksNumeric(row[c]))
                os << row[c];
            else
                os << '"' << jsonEscape(row[c]) << '"';
        }
        os << (i + 1 < rs.rows.size() ? "},\n" : "}\n");
    }
    os << "  ]";
    // The profile block exists only under --profile, so default JSON
    // output is unchanged byte for byte.
    if (rs.profiled) {
        os << ",\n  \"profile\": {\n    \"cycles\": "
           << rs.profile.cycles << ",\n    \"total_ns\": "
           << rs.profile.totalNs << ",\n    \"stages_ns\": {";
        for (std::size_t s = 0; s < kNumStages; ++s) {
            if (s)
                os << ", ";
            os << '"' << stageName(Stage(s))
               << "\": " << rs.profile.ns[s];
        }
        os << "}\n  }";
    }
    os << "\n}\n";
}

void
printHelp(std::ostream &os)
{
    os << "usage: mtdae <experiment> [options] [--<config-key>=<value>]\n"
          "\n"
          "experiments:\n";
    for (const auto &e : experiments())
        os << "  " << e.name << std::string(18 - e.name.size(), ' ')
           << e.summary << "\n";
    os << "  list              print this experiment list\n"
          "  help              print this help\n"
          "\n"
          "options:\n"
          "  --insts=N         instructions to measure per run\n"
          "  --bench=A,B       benchmark subset (fig1/run); 'suite-mix'"
          " allowed for run\n"
          "  --kernel-file=F   kernel DSL file (docs/KERNEL_DSL.md)"
          " for\n"
          "                    --bench=dsl and ablate-dsl\n"
          "  --kernel-param=K=V  override a DSL param (repeatable);"
          " a comma-\n"
          "                    listed value is an ablate-dsl grid"
          " axis\n"
          "  --threads-list=L  override the swept thread counts\n"
          "  --latencies=L     override the swept L2 latencies\n"
          "                    (for fig4-dram: the DRAM slowdown"
          " factors;\n"
          "                    for ablate-gating: the L2 sizes in"
          " KiB)\n"
          "  --perfect-l2      force the paper's never-missing L2"
          " (default for\n"
          "                    every experiment except fig4-dram and"
          " ablate-l2)\n"
          "  --fetch-policy=P  thread fetch arbitration: icount"
          " (default),\n"
          "                    round-robin, brcount, misscount,"
          " weighted, the\n"
          "                    gating policies stall, flush (suspend"
          " fetch on\n"
          "                    an outstanding L1 load miss; flush also\n"
          "                    squashes the fetch buffer for replay),"
          " or\n"
          "                    adaptive (stall-style gating only past"
          " the\n"
          "                    trailing-window miss threshold)\n"
          "  --issue-policy=P  dispatch/issue arbitration: round-robin"
          " (default),\n"
          "                    icount, brcount, misscount, weighted, or"
          " split\n"
          "                    (per-unit: AP by misscount, EP by"
          " windowed\n"
          "                    IQ occupancy)\n"
          "  --thread-weights=W  comma-listed QoS priority weights,"
          " tiled\n"
          "                    across threads (default all 1; consumed"
          " by the\n"
          "                    weighted policies and fairness metrics)\n"
          "  --adaptive-threshold=T  adaptive gating engages once the\n"
          "                    64-cycle miss window reaches T*64"
          " (default 1)\n"
          "  --jobs=N          sweep worker threads (default: hardware"
          " concurrency);\n"
          "                    results are identical at any N\n"
          "  --warm-start[=B]  share warmup checkpoints between sweep"
          " points with\n"
          "                    identical prefixes (default: on);"
          " --warm-start=0\n"
          "                    re-simulates every warmup; results are\n"
          "                    byte-identical either way\n"
          "  --seed=S          base RNG seed; each sweep point derives"
          " its own\n"
          "                    deterministic seed from S and its grid"
          " position\n"
          "  --profile         collect the per-stage wall-clock"
          " breakdown of the\n"
          "                    simulator's cycle loop (reported on"
          " stderr and in\n"
          "                    the JSON 'profile' object; result rows"
          " unchanged)\n"
          "  --format=csv|json result encoding (also --csv / --json)\n"
          "  --out=DIR         result directory (default: results)\n"
          "  --no-scale        disable paper-style queue scaling with"
          " L2 latency\n"
          "  --quiet           suppress the stdout table\n"
          "\n"
          "config keys (applied to every swept machine):\n  ";
    std::size_t col = 2;
    for (const auto &key : overrideKeys()) {
        if (col + key.size() + 2 > 76) {
            os << "\n  ";
            col = 2;
        }
        os << "--" << key << " ";
        col += key.size() + 3;
    }
    os << "\n\nexamples:\n"
          "  mtdae fig1 --insts=50000\n"
          "  mtdae fig4 --jobs=8 --seed=42\n"
          "  mtdae fig4 --threads-list=1,4 --latencies=1,32 --json\n"
          "  mtdae fig4-dram --latencies=1,4 --dram-banks=4\n"
          "  mtdae ablate-l2 --threads-list=4 --json\n"
          "  mtdae ablate-policy --threads-list=1,4 --latencies=64\n"
          "  mtdae ablate-gating --threads-list=2,4 --latencies=64\n"
          "  mtdae ablate-qos --thread-weights=4,1"
          " --latencies=256\n"
          "  mtdae ablate-checkpoint --warmup-insts=20000"
          " --warm-start=1\n"
          "  mtdae fig5 --issue-policy=misscount --quiet\n"
          "  mtdae fig5 --fetch-policy=stall --issue-policy=split\n"
          "  mtdae run --bench=tomcatv --threads=4 --l2-latency=64\n"
          "  mtdae run --bench=dsl"
          " --kernel-file=examples/kernels/pointer_chase.mk\n"
          "  mtdae ablate-dsl"
          " --kernel-file=examples/kernels/pointer_chase.mk \\\n"
          "        --kernel-param=footprint=64K,4M"
          " --threads-list=1,4\n";
}

int
runCli(const std::vector<std::string> &args, std::ostream &out,
       std::ostream &err)
{
    Options opts;
    std::string error;
    if (!parseArgs(args, opts, error)) {
        err << "mtdae: " << error << "\n"
            << "run 'mtdae help' for usage\n";
        return 2;
    }
    if (opts.experiment.empty()) {
        printHelp(err);
        return 2;
    }
    if (opts.experiment == "help") {
        printHelp(out);
        return 0;
    }
    if (opts.experiment == "list") {
        for (const auto &e : experiments())
            out << e.name << "\t" << e.summary << "\n";
        return 0;
    }
    if (!isExperiment(opts.experiment)) {
        err << "mtdae: unknown experiment '" << opts.experiment
            << "'\nrun 'mtdae list' for the experiment list\n";
        return 2;
    }
    if (opts.profile && !kProfileBuilt) {
        err << "mtdae: --profile needs the profiling instrumentation; "
               "rebuild with -DMTDAE_PROFILE=ON\n";
        return 2;
    }
    if (opts.experiment == "ablate-dsl" && opts.kernelFile.empty()) {
        err << "mtdae: ablate-dsl needs --kernel-file=PATH\n";
        return 2;
    }
    for (const auto &bench : opts.benchmarks) {
        const auto &names = specFp95Names();
        if (bench == "dsl") {
            // The DSL workload rides only on `run`, and needs a file.
            if (opts.experiment != "run") {
                err << "mtdae: --bench=dsl is only supported by the "
                       "run experiment\n";
                return 2;
            }
            if (opts.kernelFile.empty()) {
                err << "mtdae: --bench=dsl needs --kernel-file=PATH\n";
                return 2;
            }
            continue;
        }
        // Only `run` knows how to drive the suite-mix workload; the
        // figure sweeps need a concrete benchmark model.
        const bool mix_ok =
            bench == "suite-mix" && opts.experiment == "run";
        if (!mix_ok && std::find(names.begin(), names.end(), bench) ==
                           names.end()) {
            err << "mtdae: unknown benchmark '" << bench << "' (have: ";
            for (std::size_t i = 0; i < names.size(); ++i)
                err << (i ? ", " : "") << names[i];
            err << (opts.experiment == "run" ? ", suite-mix)\n" : ")\n");
            return 2;
        }
    }

    // Resolve the CSV directory before the (possibly long) run so a
    // bad --out fails fast instead of discarding the results.
    std::string dir;
    if (opts.format == Options::Format::Csv) {
        dir = opts.outDir.empty() ? resultsDir() : opts.outDir;
        if (!makeDirs(dir)) {
            err << "mtdae: cannot create output directory '" << dir
                << "'\n";
            return 2;
        }
    }

    ResultSet rs;
    try {
        rs = runExperiment(opts, err);
    } catch (const ConfigError &e) {
        err << "mtdae: " << e.what() << "\n";
        return 2;
    } catch (const dsl::DslError &e) {
        // A kernel file that fails to read or compile is user input,
        // not a simulator fault: report the position and exit as a
        // usage error.
        err << "mtdae: ";
        if (e.line > 0) {
            // Positioned compile error: file:line:col: message.
            if (!opts.kernelFile.empty())
                err << opts.kernelFile << ":";
            err << e.what();
        } else {
            // Positionless (bad file, bad override): message only.
            err << e.message;
        }
        err << "\n";
        return 2;
    }

    if (!opts.quiet) {
        TextTable t;
        t.addRow(rs.header);
        for (const auto &row : rs.rows)
            t.addRow(row);
        // In JSON mode stdout must stay machine-parseable, so the
        // human-readable table joins the progress lines on stderr.
        std::ostream &tbl =
            opts.format == Options::Format::Json ? err : out;
        tbl << "\n== " << opts.experiment << " ==\n";
        t.print(tbl);
    }

    // The per-stage breakdown goes to stderr next to the progress
    // lines: stdout (JSON) and the CSV file stay byte-identical with
    // or without --profile.
    if (rs.profiled && !opts.quiet) {
        err << "profile: " << rs.profile.cycles << " cycles in "
            << rs.profile.totalNs << " ns\n";
        for (std::size_t s = 0; s < kNumStages; ++s) {
            const double pct =
                rs.profile.totalNs
                    ? 100.0 * double(rs.profile.ns[s]) /
                          double(rs.profile.totalNs)
                    : 0.0;
            err << "  " << stageName(Stage(s)) << ": "
                << rs.profile.ns[s] << " ns (" << TextTable::fmt(pct, 1)
                << "%)\n";
        }
    }

    if (opts.format == Options::Format::Json) {
        writeJson(rs, out);
    } else {
        const std::string path = dir + "/" + rs.name + ".csv";
        CsvWriter csv(path);
        csv.row(rs.header);
        for (const auto &row : rs.rows)
            csv.row(row);
        err << "wrote " << path << "\n";
    }
    return 0;
}

} // namespace mtdae::cli
