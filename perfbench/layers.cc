/**
 * @file
 * Per-layer program of the benchmark: the traced run of one workload.
 *
 *   perfbench_layers --workload=NAME --seed=N --source-dir=DIR
 *                    --spans=PATH
 *
 * 1. Traced passes: the workload's grid, executed job by job the way
 *    JobRunner would (same warm-start grouping), but through Simulator
 *    directly so every call into a src/ module sits inside its own span
 *    (name, start, end, parent). The measure phase runs with the
 *    existing per-stage profile (Simulator::setProfiling) on. The rows
 *    must equal the untraced rows of perfbench_e2e.
 * 2. Sweep overhead: JobRunner::run on the grid against the sum of the
 *    same jobs' SimJob::run / runWarmup / runMeasured.
 * 3. Replays of inputs sampled from the workload's own jobs (same
 *    factory, seed and configuration): TraceSource::next, the kernel
 *    compiler, the policy orders over sampled ThreadStates, the memory
 *    system over the job's own address stream, snapshot save/restore.
 *
 * Spans stay in memory and are written to --spans as JSON at the end.
 * Output, one record per line (parsed by perfbench/run.py):
 *   TRACED <wall seconds of one traced pass>
 *   ROW <pass> <simulated fields of one job>     (common.hh resultRow)
 *   METRIC <name> <value>
 *
 * This program uses APIs below the sweep surface (Context::policyState,
 * FetchPolicy, MemorySystem, Snapshot), so it is a target of its own:
 * when a later tree breaks it, only the per-layer metrics go missing.
 */

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>

#include "common.hh"
#include "core/snapshot.hh"
#include "memory/memory_system.hh"
#include "policy/policy.hh"
#include "workload/spec_fp95.hh"
#include "workloads.hh"

using namespace perfbench;
using namespace mtdae;

namespace {

const char *const kUsage =
    "perfbench_layers --workload=NAME --seed=N --source-dir=DIR "
    "--spans=PATH";

/** In-memory span recorder: begin/end nest, parents by stack. */
class Tracer
{
  public:
    void
    begin(const char *name)
    {
        spans_.push_back({name, nowNs(), 0,
                          stack_.empty() ? -1 : stack_.back()});
        stack_.push_back(int(spans_.size()) - 1);
    }

    void
    end()
    {
        spans_[std::size_t(stack_.back())].end = nowNs();
        stack_.pop_back();
    }

    /** Write every span as a JSON array of objects. */
    void
    write(const std::string &path) const
    {
        std::ofstream os(path);
        os << "[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start
               << ", \"end_ns\": " << s.end << ", \"parent\": " << s.parent
               << (i + 1 < spans_.size() ? "},\n" : "}\n");
        }
        os << "]\n";
    }

  private:
    struct Span
    {
        const char *name;
        std::int64_t start;
        std::int64_t end;
        int parent;
    };

    static std::int64_t
    nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now().time_since_epoch())
            .count();
    }

    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** One span for the lifetime of the object. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name) : t_(t) { t_.begin(name); }
    ~Scope() { t_.end(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
};

void
metric(const char *name, double value)
{
    std::printf("METRIC %s %.9g\n", name, value);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * JobRunner's warm-start grouping, per job: the prefixKey() of the
 * shared warmup checkpoint it restores, or 0 when it runs cold.
 */
std::vector<std::uint64_t>
sharedPrefixes(const Workload &wl, const SweepSpec &spec)
{
    std::vector<std::uint64_t> keys(spec.size(), 0);
    if (!wl.warmStart)
        return keys;
    std::map<std::uint64_t, std::size_t> members;
    for (std::size_t i = 0; i < spec.size(); ++i)
        if (spec.jobs()[i].cfg.warmupInsts > 0)
            ++members[keys[i] = spec.jobs()[i].prefixKey()];
    for (std::uint64_t &key : keys)
        if (key && members[key] < 2)
            key = 0;
    return keys;
}

std::unique_ptr<Simulator>
construct(Tracer &tr, const SimJob &job)
{
    std::vector<std::unique_ptr<TraceSource>> sources;
    {
        Scope s(tr, "workload.make");
        sources = job.sources->make(job.cfg.numThreads, job.cfg.seed);
    }
    Scope s(tr, "core.construct");
    return std::make_unique<Simulator>(job.cfg, std::move(sources));
}

/** One traced execution of the grid; prints TRACED and ROW records. */
std::vector<RunResult>
tracedPass(Tracer &tr, const Workload &wl, int pass, std::uint64_t seed,
           const std::string &dir, SweepSpec &spec)
{
    const auto t0 = Clock::now();
    std::vector<RunResult> results;
    {
        Scope root(tr, "sweep.rep");
        {
            Scope s(tr, "sweep.build");
            spec = wl.build(seed, dir);
        }
        const std::vector<std::uint64_t> keys = sharedPrefixes(wl, spec);
        std::map<std::uint64_t, std::vector<std::uint8_t>> checkpoints;
        for (std::size_t i = 0; i < spec.size(); ++i) {
            Scope js(tr, "sweep.job");
            const SimJob &job = spec.jobs()[i];
            std::unique_ptr<Simulator> sim;
            if (keys[i]) {
                std::vector<std::uint8_t> &bytes = checkpoints[keys[i]];
                if (bytes.empty()) {
                    const auto warm = construct(tr, job);
                    {
                        Scope s(tr, "core.warmup");
                        warm->runWarmup();
                    }
                    Scope s(tr, "snapshot.save");
                    bytes = warm->saveSnapshot().toBytes();
                }
                sim = construct(tr, job);
                Scope s(tr, "snapshot.restore");
                sim->restoreSnapshot(Snapshot::fromBytes(bytes));
            } else {
                sim = construct(tr, job);
                Scope s(tr, "core.warmup");
                sim->runWarmup();
            }
            sim->setProfiling(true);
            Scope s(tr, "core.measure");
            results.push_back(sim->runMeasure(job.measureInsts));
        }
    }
    std::printf("TRACED %.9f\n", secondsSince(t0));
    std::vector<std::string> labels;
    for (const SimJob &job : spec.jobs())
        labels.push_back(job.label);
    printRows(pass, labels, results);
    return results;
}

/** Stage-profile and skip totals over a set of measured intervals. */
struct CoreTotals
{
    std::array<double, kNumStages> ns{};
    double cycles = 0, skipped = 0, events = 0, insts = 0;

    void
    add(const RunResult &r)
    {
        for (std::size_t s = 0; s < kNumStages; ++s)
            ns[s] += double(r.profile.ns[s]);
        cycles += double(r.cycles);
        skipped += double(r.cyclesSkipped);
        events += double(r.skipEvents);
        insts += double(r.insts);
    }

    double stepped() const { return std::max(cycles - skipped, 1.0); }

    /** Host ns per stepped cycle, every stage but the skip engine. */
    double
    stepNs() const
    {
        double total = 0;
        for (std::size_t s = 0; s < kNumStages; ++s)
            if (Stage(s) != Stage::Skipped)
                total += ns[s];
        return total / stepped();
    }
};

void
coreMetrics(const SweepSpec &spec,
            const std::vector<std::vector<RunResult>> &passes)
{
    CoreTotals all;
    std::map<std::uint32_t, CoreTotals> by_threads;
    for (const auto &results : passes)
        for (std::size_t i = 0; i < results.size(); ++i) {
            all.add(results[i]);
            by_threads[spec.jobs()[i].cfg.numThreads].add(results[i]);
        }
    metric("core.step_ns", all.stepNs());
    for (const Stage s : {Stage::Complete, Stage::Issue, Stage::Dispatch,
                          Stage::Fetch, Stage::Graduate, Stage::Other,
                          Stage::Snapshot}) {
        const std::string name = std::string("core.") + stageName(s) + "_ns";
        metric(name.c_str(), all.ns[std::size_t(s)] / all.stepped());
    }
    metric("core.ctx_scaling", by_threads.rbegin()->second.stepNs() /
                                   by_threads.begin()->second.stepNs());
    metric("core.skip_rate", all.skipped / std::max(all.cycles, 1.0));
    if (all.events > 0)
        metric("core.skip_ns_per_event",
               all.ns[std::size_t(Stage::Skipped)] / all.events);
    metric("core.cycles_per_skip", all.skipped / std::max(all.events, 1.0));
    metric("core.ipc", all.insts / std::max(all.cycles, 1.0));

    // Simulated, from one pass: means over the grid's jobs.
    const std::vector<RunResult> &rs = passes.front();
    const auto mean = [&](double RunResult::*field) {
        double sum = 0;
        for (const RunResult &r : rs)
            sum += r.*field;
        return sum / double(rs.size());
    };
    metric("memory.l1_miss_ratio", mean(&RunResult::missRatio));
    metric("memory.avg_fill_cycles", mean(&RunResult::avgFillLatency));
    metric("memory.l2_miss_ratio", mean(&RunResult::l2MissRatio));
    metric("memory.dram_row_hit_ratio", mean(&RunResult::dramRowHitRatio));
    metric("memory.bus_util", mean(&RunResult::busUtilization));
    metric("branch.mispredict_rate", mean(&RunResult::mispredictRate));
}

/**
 * The same jobs as JobRunner::run would execute them, one by one:
 * @return each job's wall seconds in its SimJob::run / runWarmup /
 *         runMeasured calls; @p warmups counts the warmups simulated
 */
std::vector<double>
jobsOneByOne(const Workload &wl, const SweepSpec &spec, double &warmups)
{
    const std::vector<std::uint64_t> keys = sharedPrefixes(wl, spec);
    std::map<std::uint64_t, Snapshot> checkpoints;
    std::vector<double> walls;
    warmups = 0;
    for (std::size_t i = 0; i < spec.size(); ++i) {
        const SimJob &job = spec.jobs()[i];
        const auto t0 = Clock::now();
        if (!keys[i]) {
            (void)job.run();
            warmups += job.cfg.warmupInsts > 0;
        } else {
            auto it = checkpoints.find(keys[i]);
            if (it == checkpoints.end()) {
                it = checkpoints.emplace(keys[i], job.runWarmup()).first;
                warmups += 1;
            }
            (void)job.runMeasured(it->second);
        }
        walls.push_back(secondsSince(t0));
    }
    return walls;
}

/**
 * JobRunner::run on one worker, split per job at the progress callback
 * (job i runs from its start to the next job's start; the first job
 * also carries the runner's set-up before it).
 */
std::vector<double>
runnerPerJob(const Workload &wl, const SweepSpec &spec)
{
    std::vector<Clock::time_point> starts;
    const auto t0 = Clock::now();
    (void)JobRunner(kWorkers, wl.warmStart)
        .run(spec, [&](const SimJob &) { starts.push_back(Clock::now()); });
    starts.push_back(Clock::now());
    starts.front() = t0;
    std::vector<double> walls;
    for (std::size_t i = 0; i + 1 < starts.size(); ++i)
        walls.push_back(
            std::chrono::duration<double>(starts[i + 1] - starts[i]).count());
    return walls;
}

/**
 * JobRunner::run against the same jobs run one by one, alternating,
 * three times each, compared job by job on the fastest of the three:
 * other tenants of the host only ever slow a job down, and a job is
 * short enough to find a quiet moment. What is left is resolved to a
 * small fraction of a job's wall time.
 */
void
sweepMetrics(Tracer &tr, const Workload &wl, const SweepSpec &spec)
{
    Scope root(tr, "replay.sweep");
    std::vector<double> runner(spec.size(), 1e300), jobs(spec.size(), 1e300);
    double warmups = 0;
    for (int round = 0; round < 3; ++round) {
        std::vector<double> r, j;
        {
            Scope s(tr, "sweep.runner");
            r = runnerPerJob(wl, spec);
        }
        {
            Scope s(tr, "sweep.jobs");
            j = jobsOneByOne(wl, spec, warmups);
        }
        for (std::size_t i = 0; i < spec.size(); ++i) {
            runner[i] = std::min(runner[i], r[i]);
            jobs[i] = std::min(jobs[i], j[i]);
        }
    }
    double runner_s = 0, jobs_s = 0;
    for (std::size_t i = 0; i < spec.size(); ++i) {
        runner_s += runner[i];
        jobs_s += jobs[i];
    }
    const double n = double(spec.size());
    metric("sweep.overhead_us_per_job", (runner_s - jobs_s) / n * 1e6);
    metric("sweep.warmups_per_job", warmups / n);
    metric("sweep.worker_busy_frac", jobs_s / runner_s);
}

/** ns per TraceSource::next() on the job's own factory and seed. */
void
workloadMetrics(Tracer &tr, const SimJob &job)
{
    Scope s(tr, "replay.workload");
    auto sources = job.sources->make(job.cfg.numThreads, job.cfg.seed);
    const std::size_t calls = 400000;
    TraceInst inst;
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i)
        if (sources[i % sources.size()]->next(inst))
            sink += inst.addr;
    const double wall = secondsSince(t0);
    const volatile std::uint64_t keep = sink;
    (void)keep;
    metric("workload.next_ns", wall * 1e9 / double(calls));
}

/**
 * µs per dsl::compileDsl() of the workload's kernel text: the pointer
 * chase at each footprint, or the DSL ports of the ten SPEC FP95
 * models that make up the suite mix.
 */
void
dslMetrics(Tracer &tr, const Workload &wl, const std::string &dir)
{
    Scope s(tr, "replay.dsl");
    std::vector<std::pair<std::string, dsl::ParamOverrides>> kernels;
    if (std::string(wl.name) == "idle-dram") {
        const std::string text =
            dsl::readKernelFile(kernelPath(dir, "pointer_chase"));
        for (const double footprint : kChaseFootprints)
            kernels.push_back({text, {{"footprint", footprint}}});
    } else {
        for (const std::string &name : specFp95Names())
            kernels.push_back(
                {dsl::readKernelFile(kernelPath(dir, name)), {}});
    }
    std::size_t calls = 0;
    const auto t0 = Clock::now();
    do {
        for (const auto &[text, params] : kernels) {
            (void)dsl::compileDsl(text, params);
            ++calls;
        }
    } while (secondsSince(t0) < 0.05);
    metric("dsl.compile_us", secondsSince(t0) * 1e6 / double(calls));
}

/**
 * Policy ordering and Context::policyState, replayed over ThreadStates
 * sampled each cycle from the jobs with the most contexts, right after
 * their warmup; then snapshot save/restore on the first of them.
 */
void
policyAndSnapshotMetrics(Tracer &tr, const SweepSpec &spec)
{
    std::uint32_t most = 0;
    for (const SimJob &job : spec.jobs())
        most = std::max(most, job.cfg.numThreads);

    double state_s = 0, state_calls = 0, order_s = 0, order_cycles = 0;
    std::unique_ptr<Simulator> first;
    const SimJob *first_job = nullptr;
    for (const SimJob &job : spec.jobs()) {
        if (job.cfg.numThreads != most)
            continue;
        Scope s(tr, "replay.policy");
        auto sim = construct(tr, job);
        {
            Scope w(tr, "core.warmup");
            sim->runWarmup();
        }
        std::vector<std::vector<ThreadState>> samples;
        {
            Scope p(tr, "policy.state");
            for (int c = 0; c < 1500 && !sim->allDone(); ++c) {
                sim->step();
                std::vector<ThreadState> states(most);
                const auto t0 = Clock::now();
                for (ThreadId t = 0; t < most; ++t)
                    states[t] = sim->context(t).policyState(job.cfg,
                                                            sim->now());
                state_s += secondsSince(t0);
                state_calls += most;
                samples.push_back(std::move(states));
            }
        }
        Scope p(tr, "policy.order");
        const auto fetch = makeFetchPolicy(job.cfg);
        const auto arb = makeArbitrationPolicy(job.cfg);
        std::vector<ThreadId> order;
        const auto t0 = Clock::now();
        do {
            for (const auto &states : samples) {
                fetch->fetchOrder(states, order);
                arb->dispatchOrder(states, order);
                arb->issueOrder(Unit::AP, states, order);
                arb->issueOrder(Unit::EP, states, order);
                fetch->endCycle();
                arb->endCycle();
            }
            order_cycles += double(samples.size());
        } while (secondsSince(t0) < 0.02);
        order_s += secondsSince(t0);
        if (!first) {
            first = std::move(sim);
            first_job = &job;
        }
    }
    metric("policy.state_ns", state_s * 1e9 / state_calls);
    metric("policy.order_ns", order_s * 1e9 / order_cycles);

    Scope s(tr, "replay.snapshot");
    std::vector<double> save_ms, restore_ms;
    std::vector<std::uint8_t> bytes;
    for (int k = 0; k < 5; ++k) {
        Scope w(tr, "snapshot.save");
        const auto t0 = Clock::now();
        bytes = first->saveSnapshot().toBytes();
        save_ms.push_back(secondsSince(t0) * 1e3);
    }
    for (int k = 0; k < 5; ++k) {
        const auto sim = construct(tr, *first_job);
        Scope r(tr, "snapshot.restore");
        const auto t0 = Clock::now();
        sim->restoreSnapshot(Snapshot::fromBytes(bytes));
        restore_ms.push_back(secondsSince(t0) * 1e3);
    }
    metric("snapshot.bytes", double(bytes.size()));
    metric("snapshot.save_ms", median(save_ms));
    metric("snapshot.restore_ms", median(restore_ms));
}

/**
 * The job's own address stream (its memory instructions, threads
 * interleaved) replayed on a MemorySystem built from its configuration:
 * each cycle beginCycle(), then accesses in order until the ports are
 * used or one is rejected (it is retried next cycle). Every 16th cycle
 * a timed batch of nextEventCycle() calls.
 */
void
memoryMetrics(Tracer &tr, const SimJob &job)
{
    Scope s(tr, "replay.memory");
    struct Access
    {
        Addr addr;
        bool store;
    };
    std::vector<Access> stream;
    {
        auto sources = job.sources->make(job.cfg.numThreads, job.cfg.seed);
        TraceInst inst;
        for (std::size_t i = 0; stream.size() < 200000 && i < 4000000; ++i)
            if (sources[i % sources.size()]->next(inst) && isMem(inst.op))
                stream.push_back({inst.addr, isStore(inst.op)});
    }

    MemorySystem mem(job.cfg);
    double attempts = 0, rejects = 0, probe_s = 0, probes = 0;
    Cycle sink = 0;
    std::size_t k = 0;
    const auto t0 = Clock::now();
    for (Cycle now = 0; k < stream.size(); ++now) {
        mem.beginCycle(now);
        for (std::uint32_t p = 0; p < job.cfg.l1Ports && k < stream.size();
             ++p) {
            const Access &a = stream[k];
            const MemResult r =
                a.store ? mem.store(a.addr, now) : mem.load(a.addr, now);
            attempts += 1;
            if (!r.accepted) {
                rejects += 1;
                break;
            }
            ++k;
        }
        if (now % 16 == 0) {
            const auto p0 = Clock::now();
            for (int i = 0; i < 16; ++i)
                sink ^= mem.nextEventCycle(now);
            probe_s += secondsSince(p0);
            probes += 16;
        }
    }
    const double wall = secondsSince(t0) - probe_s;
    const volatile Cycle keep = sink;
    (void)keep;
    metric("memory.access_ns", wall * 1e9 / attempts);
    metric("memory.reject_ratio", rejects / attempts);
    metric("memory.next_event_ns", probe_s * 1e9 / probes);
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> flags;
    if (!parseFlags(argc, argv, {"workload", "seed", "source-dir", "spans"},
                    kUsage, flags))
        return 2;
    const Workload *wl = findWorkload(flags["workload"]);
    if (!wl) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     flags["workload"].c_str());
        return 2;
    }
    const std::uint64_t seed = std::strtoull(flags["seed"].c_str(), 0, 10);
    const std::string &dir = flags["source-dir"];

    Tracer tr;
    try {
        SweepSpec spec;
        std::vector<std::vector<RunResult>> traced;
        for (int pass = 1; pass <= 2; ++pass)
            traced.push_back(tracedPass(tr, *wl, pass, seed, dir, spec));
        coreMetrics(spec, traced);
        sweepMetrics(tr, *wl, spec);

        const SimJob *widest = &spec.jobs().front();
        for (const SimJob &job : spec.jobs())
            if (job.cfg.numThreads > widest->cfg.numThreads)
                widest = &job;
        workloadMetrics(tr, *widest);
        dslMetrics(tr, *wl, dir);
        policyAndSnapshotMetrics(tr, spec);
        memoryMetrics(tr, *widest);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_layers: %s\n", e.what());
        return 1;
    }
    tr.write(flags["spans"]);
    return 0;
}
