/**
 * @file
 * The experiment table behind `mtdae`: one declarative entry per
 * experiment (name, summary, default budget, key headers, result
 * columns and a grid function that adds each point once), and the one
 * runner that executes any entry. cli.cc parses the command line and
 * emits the ResultSet this returns.
 */

#include "harness/cli.hh"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>

#include "common/log.hh"
#include "common/table.hh"
#include "core/slot_stats.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "workload/dsl/interp.hh"
#include "workload/spec_fp95.hh"

namespace mtdae::cli {

namespace {

/**
 * Parse one --kernel-param value: a number with an optional binary
 * K/M/G suffix, matching the DSL's own numeric literals.
 */
bool
parseParamValue(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str())
        return false;
    double mult = 1.0;
    if (*end == 'K') {
        mult = 1024.0;
        ++end;
    } else if (*end == 'M') {
        mult = 1024.0 * 1024.0;
        ++end;
    } else if (*end == 'G') {
        mult = 1024.0 * 1024.0 * 1024.0;
        ++end;
    }
    if (*end != '\0')
        return false;
    out = v * mult;
    return true;
}

/** Shortest decimal form that parses back to the same double. */
std::string
paramText(double v)
{
    char buf[40];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

/**
 * The --kernel-param overrides as single values (`run --bench=dsl`):
 * comma lists are grid axes and only ablate-dsl crosses them.
 *
 * @throws dsl::DslError on a malformed value (runCli reports it as a
 *         usage error)
 */
dsl::ParamOverrides
singleKernelOverrides(const Options &opts)
{
    dsl::ParamOverrides ov;
    for (const auto &[name, value] : opts.kernelParams) {
        double v = 0.0;
        if (!parseParamValue(value, v))
            throw dsl::DslError(
                0, 0,
                "bad --kernel-param value '" + value + "' for '" +
                    name +
                    "' (one number; comma lists are ablate-dsl grid "
                    "axes)");
        ov.emplace_back(name, v);
    }
    return ov;
}

/**
 * The workload of one `run --bench` value.
 *
 * @throws dsl::DslError for a kernel file that cannot be read or
 *         compiled
 */
std::unique_ptr<TraceSourceFactory>
workloadFactory(const std::string &bench, const Options &opts)
{
    if (bench == "suite-mix")
        return makeSuiteMixFactory();
    if (bench != "dsl")
        return makeBenchmarkFactory(bench);
    const std::string text = dsl::readKernelFile(opts.kernelFile);
    return dsl::makeDslFactory(text, singleKernelOverrides(opts));
}

/** One ablate-dsl sweep axis: a param name and its grid values. */
struct KernelAxis
{
    std::string name;
    std::vector<double> values;
};

/**
 * The --kernel-param flags as sweep axes, in flag order.
 *
 * @throws dsl::DslError on a malformed value
 */
std::vector<KernelAxis>
kernelAxes(const Options &opts)
{
    std::vector<KernelAxis> axes;
    for (const auto &[name, value] : opts.kernelParams) {
        KernelAxis axis;
        axis.name = name;
        std::istringstream parts(value);
        for (std::string part; std::getline(parts, part, ',');) {
            if (part.empty())
                continue;
            double v = 0.0;
            if (!parseParamValue(part, v))
                throw dsl::DslError(0, 0,
                                    "bad --kernel-param value '" +
                                        part + "' for '" + name + "'");
            axis.values.push_back(v);
        }
        if (axis.values.empty())
            throw dsl::DslError(0, 0,
                                "empty --kernel-param value for '" +
                                    name + "'");
        axes.push_back(std::move(axis));
    }
    return axes;
}

/** A cell formatted to a fixed number of digits after the point. */
constexpr auto fmt = &TextTable::fmt;

/** A key cell: the decimal form of a swept value. */
std::string
str(std::uint64_t v)
{
    return std::to_string(v);
}

/** A key cell for a boolean axis ("decoupled"). */
const char *
flag(bool b)
{
    return b ? "1" : "0";
}

std::vector<std::uint32_t>
sweepOr(const std::vector<std::uint32_t> &user,
        std::vector<std::uint32_t> fallback)
{
    return user.empty() ? fallback : user;
}

/** The first swept value: experiments with a single point on an axis. */
std::uint32_t
firstOr(const std::vector<std::uint32_t> &user, std::uint32_t fallback)
{
    return user.empty() ? fallback : user.front();
}

/** makeCfg()'s backend argument: the finite L2 + DRAM. */
constexpr bool kFiniteL2 = true;

/**
 * The paper machine with the CLI's scaling choice and overrides: L2 hit
 * @p l2_latency cycles, structures scaled for @p scale_for cycles of
 * latency (default: l2_latency; paper §2, unless --no-scale), on the
 * finite L2 + DRAM backend when @p finite_l2. User overrides are
 * applied last, so they win over everything here; an experiment pins
 * its own swept knobs on the result afterwards.
 */
SimConfig
makeCfg(const Options &opts, std::uint32_t threads, bool decoupled,
        std::uint32_t l2_latency, bool finite_l2 = false,
        std::uint32_t scale_for = 0)
{
    SimConfig cfg = paperConfig(threads, decoupled,
                                scale_for ? scale_for : l2_latency,
                                opts.scaleQueues);
    cfg.l2Latency = l2_latency;
    cfg.perfectL2 = !finite_l2;
    std::string error;
    if (!applyOverrides(cfg, opts, error))
        throw ConfigError("bad override: " + error);
    return cfg;
}

// --- The experiment table ---------------------------------------------

/** What a result column formats: one row's point, in context. */
struct Cell
{
    const RunResult &r;     ///< The row's point.
    const RunResult &base;  ///< Its ipc_loss_pct baseline point.
    Unit unit;              ///< The unit fig3's per-unit columns read.
};

/** Formats one result cell with @p digits after the decimal point. */
using CellFormat = std::function<std::string(const Cell &, int digits)>;

CellFormat
real(double RunResult::*field)
{
    return [field](const Cell &c, int d) { return fmt(c.r.*field, d); };
}

CellFormat
count(std::uint64_t RunResult::*field)
{
    return [field](const Cell &c, int) { return str(c.r.*field); };
}

/** Slot fraction of @p use on @p unit (null: the row's own unit). */
CellFormat
slots(SlotUse use, SlotBreakdown RunResult::*unit = nullptr)
{
    return [use, unit](const Cell &c, int d) {
        const SlotBreakdown &bd = unit                 ? c.r.*unit
                                  : c.unit == Unit::AP ? c.r.ap
                                                       : c.r.ep;
        return fmt(bd.fraction(use), d);
    };
}

/**
 * Every result-column header mtdae emits and the RunResult value it
 * formats, defined once for every experiment that prints it.
 */
const std::map<std::string, CellFormat> &
cellFormats()
{
    using R = RunResult;
    static const std::map<std::string, CellFormat> formats = {
        {"cycles", count(&R::cycles)},
        {"insts", count(&R::insts)},
        {"cycles_skipped", count(&R::cyclesSkipped)},
        {"skip_events", count(&R::skipEvents)},
        {"ipc", real(&R::ipc)},
        {"perceived_fp", real(&R::perceivedFp)},
        {"perceived_int", real(&R::perceivedInt)},
        {"perceived_all", real(&R::perceivedAll)},
        {"perceived", real(&R::perceivedAll)},  // ablate-iq's name
        {"load_miss", real(&R::loadMissRatio)},
        {"store_miss", real(&R::storeMissRatio)},
        {"l1_miss", real(&R::missRatio)},
        {"delayed_hit", real(&R::mergedRatio)},
        {"bus_util", real(&R::busUtilization)},
        {"mispredict", real(&R::mispredictRate)},
        {"avg_fill", real(&R::avgFillLatency)},
        {"l2_miss", real(&R::l2MissRatio)},
        {"dram_row_hit", real(&R::dramRowHitRatio)},
        {"dram_bus_util", real(&R::dramBusUtilization)},
        {"wspeedup", real(&R::weightedSpeedup)},
        {"fair_hmean", real(&R::fairnessHmean)},
        {"fair_maxmin", real(&R::fairnessMaxMin)},
        {"ap_useful", slots(SlotUse::Useful, &R::ap)},
        {"ep_useful", slots(SlotUse::Useful, &R::ep)},
        {"ap_idle", slots(SlotUse::Idle, &R::ap)},
        {"useful", slots(SlotUse::Useful)},
        {"wait_mem", slots(SlotUse::WaitMem)},
        {"wait_fu", slots(SlotUse::WaitFu)},
        {"idle", slots(SlotUse::Idle)},
        {"other", slots(SlotUse::Other)},
        {"unit",
         [](const Cell &c, int) {
             return std::string(c.unit == Unit::AP ? "AP" : "EP");
         }},
        {"ipc_loss_pct",
         [](const Cell &c, int d) {
             const double b = c.base.ipc;
             return fmt(b > 0 ? 100.0 * (1.0 - c.r.ipc / b) : 0.0, d);
         }},
        {"slow_t0",
         [](const Cell &c, int d) {
             const auto &s = c.r.threadSlowdown;
             return fmt(s.empty() ? 0.0 : s.front(), d);
         }},
        {"slow_max",
         [](const Cell &c, int d) {
             double m = 0.0;
             for (const double s : c.r.threadSlowdown)
                 m = std::max(m, s);
             return fmt(m, d);
         }},
    };
    return formats;
}

/** One result column: a cellFormats() header and its precision. */
struct Column
{
    std::string header;
    int digits = 4;
};

/** One result row: key cells plus the point its columns format. */
struct Row
{
    std::vector<std::string> keys;
    std::size_t point;
    std::size_t baseline;
    Unit unit;
};

/** What an experiment's grid function fills. */
struct Grid
{
    static constexpr std::size_t kSelf = ~std::size_t(0);

    std::uint64_t insts;  ///< --insts, else the entry's default budget
    /** The entry's key headers; ablate-dsl inserts its param axes. */
    std::vector<std::string> keyHeaders;
    SweepSpec spec;
    std::vector<Row> rows;

    /**
     * Add a result row of @p keys for @p job, the point just added to
     * spec. ipc_loss_pct compares it with point @p baseline (default:
     * itself); @p unit selects fig3's per-unit columns. The key cells
     * double as the job's progress label.
     */
    void
    row(std::vector<std::string> keys, SimJob &job,
        std::size_t baseline = kSelf, Unit unit = Unit::AP)
    {
        MTDAE_ASSERT(keys.size() == keyHeaders.size(), "row of ",
                     keys.size(), " key cells under ", keyHeaders.size(),
                     " key headers");
        job.label.clear();
        for (std::size_t i = 0; i < keys.size(); ++i)
            job.label += (i ? " " : "") + keyHeaders[i] + "=" + keys[i];
        rows.push_back({std::move(keys), job.index,
                        baseline == kSelf ? job.index : baseline, unit});
    }

    /** Add a suite-mix point measuring @p measure instructions. */
    void
    mix(std::vector<std::string> keys, const SimConfig &cfg,
        std::uint64_t measure, std::size_t baseline = kSelf)
    {
        row(std::move(keys), spec.addSuiteMix(cfg, measure), baseline);
    }
};

/**
 * One experiment: its name and summary, default per-thread instruction
 * budget, key-column headers, result columns, and the grid function
 * that adds every point once with its key cells.
 */
struct Entry
{
    Experiment info;
    std::uint64_t budget;
    std::vector<std::string> keys;
    std::vector<Column> columns;
    void (*grid)(Grid &, const Options &);
};

const std::vector<Entry> &
table()
{
    using PK = PolicyKind;
    static const std::vector<Entry> entries = {
        {{"run", "single configuration run (suite mix or --bench=...)"},
         300000, {"benchmark", "threads", "decoupled", "l2_latency"},
         {{"cycles"}, {"insts"}, {"ipc"}, {"perceived_fp"},
          {"perceived_int"}, {"perceived_all"}, {"load_miss"},
          {"store_miss"}, {"delayed_hit"}, {"bus_util"}, {"mispredict"},
          {"ap_useful"}, {"ep_useful"}, {"cycles_skipped"},
          {"skip_events"}},
         [](Grid &g, const Options &o) {
             std::vector<std::string> benches = o.benchmarks;
             if (benches.empty())
                 benches = {"suite-mix"};
             for (const auto &bench : benches) {
                 const auto workload = workloadFactory(bench, o);
                 for (const auto n : sweepOr(o.threads, {1}))
                     for (const auto lat : sweepOr(o.latencies, {16})) {
                         const SimConfig cfg = makeCfg(o, n, true, lat);
                         g.row({bench, str(cfg.numThreads),
                                flag(cfg.decoupled), str(cfg.l2Latency)},
                               g.spec.add(cfg, workload->clone(),
                                          g.insts * n));
                     }
             }
         }},

        {{"fig1", "latency hiding, 1T decoupled, per-benchmark L2 sweep"},
         250000, {"benchmark", "l2_latency"},
         {{"ipc"}, {"ipc_loss_pct", 2}, {"perceived_fp", 2},
          {"perceived_int", 2}, {"load_miss"}, {"store_miss"},
          {"delayed_hit"}},
         [](Grid &g, const Options &o) {
             for (const auto &bench : o.benchmarks.empty()
                                          ? specFp95Names()
                                          : o.benchmarks) {
                 const std::size_t base = g.spec.size();
                 for (const auto lat : sweepOr(o.latencies, paperLatencies()))
                     g.row({bench, str(lat)},
                           g.spec.addBenchmark(makeCfg(o, 1, true, lat),
                                               bench, g.insts),
                           base);
             }
         }},

        // One point per thread count, one row per unit.
        {{"fig3", "AP/EP issue-slot breakdown vs. hardware contexts"},
         300000, {"threads"},
         {{"ipc"}, {"unit"}, {"useful"}, {"wait_mem"}, {"wait_fu"},
          {"idle"}, {"other"}},
         [](Grid &g, const Options &o) {
             const auto lat = firstOr(o.latencies, 16);
             for (const auto n : sweepOr(o.threads, {1, 2, 3, 4, 5, 6})) {
                 SimJob &job = g.spec.addSuiteMix(makeCfg(o, n, true, lat),
                                                  g.insts * n);
                 for (const Unit unit : {Unit::AP, Unit::EP})
                     g.row({str(n)}, job, Grid::kSelf, unit);
             }
         }},

        {{"fig4", "latency tolerance of 1-4T (non-)decoupled machines"},
         300000, {"threads", "decoupled", "l2_latency"},
         {{"ipc"}, {"ipc_loss_pct", 2}, {"perceived_all", 2}},
         [](Grid &g, const Options &o) {
             for (const auto n : sweepOr(o.threads, {1, 2, 3, 4}))
                 for (const bool dec : {true, false}) {
                     const std::size_t base = g.spec.size();
                     for (const auto lat :
                          sweepOr(o.latencies, paperLatencies()))
                         g.mix({str(n), flag(dec), str(lat)},
                               makeCfg(o, n, dec, lat), g.insts * n, base);
                 }
         }},

        // Default: the paper's two sweeps, L2=16 to 7T and L2=64 to 16T;
        // either list flag switches to a plain latency x thread grid.
        {{"fig5", "IPC vs. contexts at L2=16/64 with bus utilisation"},
         200000, {"l2_latency", "threads", "decoupled"},
         {{"ipc"}, {"bus_util"}},
         [](Grid &g, const Options &o) {
             std::vector<std::pair<std::uint32_t,
                                   std::vector<std::uint32_t>>>
                 sweeps = {{16, {1, 2, 3, 4, 5, 6, 7}},
                           {64, {1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16}}};
             if (!o.latencies.empty() || !o.threads.empty()) {
                 sweeps.clear();
                 for (const auto lat : sweepOr(o.latencies, {16, 64}))
                     sweeps.push_back(
                         {lat, sweepOr(o.threads, {1, 2, 3, 4, 5, 6, 7, 8})});
             }
             for (const auto &[lat, threads] : sweeps)
                 for (const auto n : threads)
                     for (const bool dec : {true, false})
                         g.mix({str(lat), str(n), flag(dec)},
                               makeCfg(o, n, dec, lat), g.insts * n);
         }},

        // Fig4 against the real backend: successive points slow the DRAM
        // down (CAS/RAS/precharge x dram_scale, the --latencies values)
        // while the L2 hit stays 16 cycles, so the tolerated latency is
        // the emergent avg_fill. Structures scale with the slowdown as
        // the paper scales them with L2 latency (unless --no-scale).
        {{"fig4-dram",
          "latency tolerance against the finite L2 + DRAM backend"},
         300000, {"threads", "decoupled", "dram_scale"},
         {{"ipc"}, {"ipc_loss_pct", 2}, {"avg_fill", 1},
          {"perceived_all", 2}, {"l2_miss"}, {"dram_bus_util"}},
         [](Grid &g, const Options &o) {
             for (const auto n : sweepOr(o.threads, {1, 2, 3, 4}))
                 for (const bool dec : {true, false}) {
                     const std::size_t base = g.spec.size();
                     for (const auto s : sweepOr(o.latencies, {1, 2, 4, 8})) {
                         SimConfig cfg =
                             makeCfg(o, n, dec, 16, kFiniteL2, 16 * s);
                         cfg.dramCas *= s;
                         cfg.dramRas *= s;
                         cfg.dramPrecharge *= s;
                         g.mix({str(n), flag(dec), str(s)}, cfg,
                               g.insts * n, base);
                     }
                 }
         }},

        {{"ablate-width", "AP/EP issue-width split at total width 8"},
         200000, {"ap_units", "ep_units"},
         {{"ipc"}, {"ap_useful"}, {"ep_useful"}},
         [](Grid &g, const Options &o) {
             const auto n = firstOr(o.threads, 4);
             for (std::uint32_t ap = 2; ap <= 6; ++ap) {
                 SimConfig cfg =
                     makeCfg(o, n, true, firstOr(o.latencies, 16));
                 cfg.apUnits = ap;
                 cfg.epUnits = 8 - ap;
                 g.mix({str(ap), str(8 - ap)}, cfg, g.insts * n);
             }
         }},

        {{"ablate-predictor", "bimodal vs. gshare and speculation depth"},
         200000, {"predictor", "max_branches"},
         {{"ipc"}, {"mispredict"}, {"ap_idle"}},
         [](Grid &g, const Options &o) {
             using P = SimConfig::PredictorKind;
             const auto n = firstOr(o.threads, 4);
             for (const P kind : {P::Bimodal, P::Gshare})
                 for (const std::uint32_t depth : {1, 4, 16}) {
                     SimConfig cfg =
                         makeCfg(o, n, true, firstOr(o.latencies, 16));
                     cfg.predictor = kind;
                     cfg.maxUnresolvedBranches = depth;
                     g.mix({kind == P::Bimodal ? "bimodal" : "gshare",
                            str(depth)},
                           cfg, g.insts * n);
                 }
         }},

        {{"ablate-mshrs", "MSHR count sweep (lockup-free-ness)"},
         120000, {"mshrs", "threads"},
         {{"ipc"}, {"bus_util"}},
         [](Grid &g, const Options &o) {
             for (const std::uint32_t m : {1, 2, 4, 8, 16, 32, 64})
                 for (const auto n : sweepOr(o.threads, {1, 4})) {
                     SimConfig cfg =
                         makeCfg(o, n, true, firstOr(o.latencies, 64));
                     cfg.mshrs = m;
                     g.mix({str(m), str(n)}, cfg, g.insts * n);
                 }
         }},

        {{"ablate-ports", "L1 data-cache port sweep"},
         120000, {"ports", "threads"},
         {{"ipc"}},
         [](Grid &g, const Options &o) {
             for (const std::uint32_t p : {1, 2, 4, 8})
                 for (const auto n : sweepOr(o.threads, {1, 4})) {
                     SimConfig cfg =
                         makeCfg(o, n, true, firstOr(o.latencies, 64));
                     cfg.l1Ports = p;
                     g.mix({str(p), str(n)}, cfg, g.insts * n);
                 }
         }},

        // iq_entries = 0 marks the non-decoupled reference machine.
        {{"ablate-iq", "EP instruction-queue depth sweep"},
         120000, {"iq_entries", "threads"},
         {{"ipc"}, {"perceived"}},
         [](Grid &g, const Options &o) {
             const auto lat = firstOr(o.latencies, 64);
             for (const std::uint32_t depth :
                  {1, 2, 4, 8, 16, 32, 48, 96, 192, 384})
                 for (const auto n : sweepOr(o.threads, {1, 4})) {
                     SimConfig cfg = makeCfg(o, n, true, lat);
                     cfg.iqEntries = depth;
                     g.mix({str(depth), str(n)}, cfg, g.insts * n);
                 }
             for (const auto n : sweepOr(o.threads, {1, 4}))
                 g.mix({"0", str(n)}, makeCfg(o, n, false, lat),
                       g.insts * n);
         }},

        // l2_kb = 0 marks the paper's perfect-L2 reference machine: the
        // gap against it is the cost of a real memory system.
        {{"ablate-l2", "L2 size sweep on the DRAM backend"},
         120000, {"l2_kb", "threads"},
         {{"ipc"}, {"l1_miss"}, {"l2_miss"}, {"avg_fill", 1},
          {"dram_row_hit"}, {"dram_bus_util"}},
         [](Grid &g, const Options &o) {
             const auto lat = firstOr(o.latencies, 16);
             for (const std::uint32_t kb : {64, 128, 256, 512, 1024, 2048})
                 for (const auto n : sweepOr(o.threads, {1, 4})) {
                     SimConfig cfg = makeCfg(o, n, true, lat, kFiniteL2);
                     cfg.l2Bytes = kb * 1024;
                     g.mix({str(kb), str(n)}, cfg, g.insts * n);
                 }
             for (const auto n : sweepOr(o.threads, {1, 4}))
                 g.mix({"0", str(n)}, makeCfg(o, n, true, lat),
                       g.insts * n);
         }},

        // Every fetch policy crossed with every dispatch/issue policy;
        // icount/round-robin is the paper's machine. Policies matter
        // most under long-latency memory, hence the L2=64 default.
        {{"ablate-policy", "fetch x issue thread-arbitration policy grid"},
         120000, {"fetch_policy", "issue_policy", "threads"},
         {{"ipc"}, {"perceived_all", 2}, {"mispredict"}, {"ap_useful"},
          {"ep_useful"}},
         [](Grid &g, const Options &o) {
             for (const PK fp : fetchPolicies())
                 for (const PK ip : issuePolicies())
                     for (const auto n : sweepOr(o.threads, {1, 4})) {
                         SimConfig cfg =
                             makeCfg(o, n, true, firstOr(o.latencies, 64));
                         cfg.fetchPolicy = fp;
                         cfg.issuePolicy = ip;
                         g.mix({policyName(fp), policyName(ip), str(n)},
                               cfg, g.insts * n);
                     }
         }},

        // The STALL/FLUSH gating policies against plain ICOUNT, crossed
        // with L2 size (the --latencies values, in KiB) and thread count
        // on the finite backend, where miss pressure is real.
        {{"ablate-gating",
          "fetch gating (stall/flush) x L2 size on the DRAM backend"},
         120000, {"fetch_policy", "l2_kb", "threads"},
         {{"ipc"}, {"perceived_all", 2}, {"l1_miss"}, {"l2_miss"},
          {"avg_fill", 1}},
         [](Grid &g, const Options &o) {
             for (const PK fp : {PK::Icount, PK::Stall, PK::Flush})
                 for (const auto kb : sweepOr(o.latencies, {64, 256, 1024}))
                     for (const auto n : sweepOr(o.threads, {2, 4})) {
                         SimConfig cfg = makeCfg(o, n, true, 16, kFiniteL2);
                         cfg.l2Bytes = kb * 1024;
                         cfg.fetchPolicy = fp;
                         g.mix({policyName(fp), str(kb), str(n)}, cfg,
                               g.insts * n);
                     }
         }},

        // Thread-weight vectors x policy pairs x L2 size (--latencies, in
        // KiB) on the finite backend, with the fairness metrics: does a
        // weighted or adaptive policy turn priority into proportional
        // progress? --threads-list gives the thread count (first value);
        // the weight vectors tile across it.
        {{"ablate-qos",
          "thread-weight x policy x L2 fairness grid (QoS metrics)"},
         60000, {"weights", "fetch_policy", "issue_policy", "l2_kb"},
         {{"ipc"}, {"wspeedup"}, {"fair_hmean"}, {"fair_maxmin"},
          {"slow_t0"}, {"slow_max"}},
         [](Grid &g, const Options &o) {
             const auto n = firstOr(o.threads, 4);
             const std::pair<PK, PK> pairs[] = {
                 {PK::Icount, PK::RoundRobin},
                 {PK::Weighted, PK::Weighted},
                 {PK::Adaptive, PK::RoundRobin},
                 {PK::Adaptive, PK::Weighted}};
             for (const std::uint32_t w0 : {1, 4, 16})
                 for (const auto &[fp, ip] : pairs)
                     for (const auto kb : sweepOr(o.latencies, {256, 1024})) {
                         SimConfig cfg = makeCfg(o, n, true, 16, kFiniteL2);
                         cfg.l2Bytes = kb * 1024;
                         cfg.fetchPolicy = fp;
                         cfg.issuePolicy = ip;
                         cfg.threadWeights = {w0, 1};
                         // ':'-separated so the cell survives the CSV.
                         g.mix({str(w0) + ":1", policyName(fp),
                                policyName(ip), str(kb)},
                               cfg, g.insts * n);
                     }
         }},

        // Per thread count, three points that differ only in measure
        // budget on one seed stream, so they share a warmup prefix
        // (SimJob::prefixKey()): --warm-start simulates it once per
        // group. The rows are byte-identical either way.
        {{"ablate-checkpoint",
          "warm-start fan-out grid (shared warmup checkpoints)"},
         60000, {"threads", "measure_x"},
         {{"ipc"}, {"cycles"}, {"insts"}},
         [](Grid &g, const Options &o) {
             std::uint64_t stream = 0;
             for (const auto n : sweepOr(o.threads, {1, 2, 4})) {
                 const SimConfig cfg =
                     makeCfg(o, n, true, firstOr(o.latencies, 16));
                 for (const std::uint64_t m : {1, 2, 4})
                     g.row({str(n), str(m)},
                           g.spec.addSuiteMix(cfg, g.insts * n * m, "",
                                              stream));
                 ++stream;
             }
         }},

        // A kernel file as a sweep axis: every comma-listed
        // --kernel-param is a grid dimension (first flag outermost),
        // crossed with the thread counts; the kernel is recompiled per
        // point with that point's param values.
        {{"ablate-dsl",
          "DSL kernel-file param grid (--kernel-file, --kernel-param)"},
         150000, {"kernel", "threads", "l2_latency"},
         {{"ipc"}, {"perceived_fp"}, {"perceived_int"}, {"load_miss"},
          {"bus_util"}, {"cycles"}, {"insts"}},
         [](Grid &g, const Options &o) {
             const std::string text = dsl::readKernelFile(o.kernelFile);
             const std::string kname = dsl::compileKernel(text).name;
             const auto axes = kernelAxes(o);
             std::vector<dsl::ParamOverrides> combos = {{}};
             for (std::size_t i = 0; i < axes.size(); ++i) {
                 g.keyHeaders.insert(g.keyHeaders.begin() + 1 + i,
                                     axes[i].name);
                 std::vector<dsl::ParamOverrides> next;
                 for (const auto &combo : combos)
                     for (const double v : axes[i].values) {
                         next.push_back(combo);
                         next.back().emplace_back(axes[i].name, v);
                     }
                 combos = std::move(next);
             }
             const auto lat = firstOr(o.latencies, 16);
             for (const auto &params : combos)
                 for (const auto n : sweepOr(o.threads, {1, 4})) {
                     std::vector<std::string> keys = {kname};
                     for (const auto &param : params)
                         keys.push_back(paramText(param.second));
                     keys.push_back(str(n));
                     keys.push_back(str(lat));
                     g.row(std::move(keys),
                           g.spec.addDsl(makeCfg(o, n, true, lat), text,
                                         params, g.insts * n));
                 }
         }},
    };
    return entries;
}

const Entry *
findEntry(const std::string &name)
{
    for (const Entry &e : table())
        if (e.info.name == name)
            return &e;
    return nullptr;
}

/**
 * Run @p e: build its grid, execute it on the --jobs pool (echoing each
 * job's label to @p err unless --quiet), and format each row from its
 * point's result. Under --profile the per-job breakdowns are summed
 * onto the ResultSet, next to (never inside) the rows.
 */
ResultSet
runEntry(const Entry &e, const Options &opts, std::ostream &err)
{
    Grid g{opts.insts > 0 ? opts.insts : instsBudget(e.budget), e.keys,
           {}, {}};
    e.grid(g, opts);
    g.spec.setProfile(opts.profile);
    JobRunner::Progress on_start;
    if (!opts.quiet)
        on_start = [&err](const SimJob &job) {
            err << "  running " << job.label << "\n";
        };
    const std::vector<RunResult> results =
        JobRunner(opts.jobs, opts.warmStart).run(g.spec, on_start);

    ResultSet rs;
    rs.name = e.info.name;  // the CSV basename: "fig4-dram" -> "fig4_dram"
    std::replace(rs.name.begin(), rs.name.end(), '-', '_');
    rs.header = g.keyHeaders;
    std::vector<CellFormat> formats;
    for (const Column &c : e.columns) {
        const auto it = cellFormats().find(c.header);
        MTDAE_ASSERT(it != cellFormats().end(), "no cell format for '",
                     c.header, "'");
        rs.header.push_back(c.header);
        formats.push_back(it->second);
    }
    for (const Row &row : g.rows) {
        const Cell cell{results[row.point], results[row.baseline],
                        row.unit};
        std::vector<std::string> cells = row.keys;
        for (std::size_t c = 0; c < formats.size(); ++c)
            cells.push_back(formats[c](cell, e.columns[c].digits));
        rs.rows.push_back(std::move(cells));
    }
    for (const RunResult &r : results) {
        if (!r.profile.enabled)
            continue;
        for (std::size_t s = 0; s < kNumStages; ++s)
            rs.profile.ns[s] += r.profile.ns[s];
        rs.profile.totalNs += r.profile.totalNs;
        rs.profile.cycles += r.profile.cycles;
        rs.profile.enabled = rs.profiled = true;
    }
    return rs;
}

} // namespace

const std::vector<Experiment> &
experiments()
{
    static const std::vector<Experiment> infos = [] {
        std::vector<Experiment> v;
        for (const auto &e : table())
            v.push_back(e.info);
        return v;
    }();
    return infos;
}

bool
isExperiment(const std::string &name)
{
    return findEntry(name) != nullptr;
}

ResultSet
runExperiment(const Options &opts, std::ostream &err)
{
    const Entry *e = findEntry(opts.experiment);
    MTDAE_ASSERT(e != nullptr, "unknown experiment '", opts.experiment,
                 "'");
    return runEntry(*e, opts, err);
}

} // namespace mtdae::cli
