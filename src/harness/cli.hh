/**
 * @file
 * The unified experiment CLI behind the `mtdae` binary: option parsing
 * and result emission (cli.cc) and the experiment table
 * (experiment_table.cc). Lives in the harness so the argument-parsing
 * and experiment-dispatch logic is unit testable without spawning a
 * process.
 */

#ifndef MTDAE_HARNESS_CLI_HH
#define MTDAE_HARNESS_CLI_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "core/profile.hh"

namespace mtdae::cli {

/** Parsed command line for one `mtdae <experiment> [--key=value]` run. */
struct Options
{
    /** Subcommand (experiment name, "list", or "help"). */
    std::string experiment;

    /** Output encoding for the result rows. */
    enum class Format : std::uint8_t { Csv, Json };
    Format format = Format::Csv;

    /** Result directory; empty means harness resultsDir(). */
    std::string outDir;

    /** Instruction budget override; 0 keeps the experiment default. */
    std::uint64_t insts = 0;

    /** Restrict fig1/run to these benchmarks (empty = all ten). */
    std::vector<std::string> benchmarks;

    /** Override the swept thread counts (empty = experiment default). */
    std::vector<std::uint32_t> threads;

    /** Override the swept L2 latencies (empty = experiment default).
     *  fig4-dram reinterprets these as DRAM slowdown factors. */
    std::vector<std::uint32_t> latencies;

    /** Disable the paper's §2 queue/register scaling with L2 latency. */
    bool scaleQueues = true;

    /**
     * Sweep worker threads (--jobs=N); 0 means the hardware default
     * (see defaultJobs() in harness/sweep.hh). Results are identical
     * at any worker count.
     */
    std::uint32_t jobs = 0;

    /**
     * Warm-start prefix sharing (--warm-start[=bool]): sweep points
     * with identical warmup prefixes fan out from one checkpoint
     * (JobRunner, docs/CHECKPOINT.md). Results are byte-identical
     * either way; --warm-start=0 forces every job to simulate its own
     * warmup, for timing comparisons.
     */
    bool warmStart = true;

    /**
     * Collect the per-stage wall-clock breakdown (--profile): every
     * swept job runs with Simulator::setProfiling(true) and the summed
     * breakdown is reported next to (never inside) the result rows, so
     * CSV output stays byte-identical with or without the flag.
     */
    bool profile = false;

    /**
     * Kernel DSL file (--kernel-file): the workload for `run
     * --bench=dsl` and for the ablate-dsl experiment
     * (docs/KERNEL_DSL.md).
     */
    std::string kernelFile;

    /**
     * DSL param overrides (--kernel-param=NAME=VALUE, repeatable), in
     * flag order. ablate-dsl treats a comma-listed VALUE as a sweep
     * axis and crosses the axes; everywhere else a VALUE must be a
     * single number (with an optional binary K/M/G suffix).
     */
    std::vector<std::pair<std::string, std::string>> kernelParams;

    /** Suppress the human-readable table on stdout. */
    bool quiet = false;

    /** SimConfig overrides, applied in order to every swept config. */
    std::vector<std::pair<std::string, std::string>> overrides;
};

/**
 * Set @p key (CLI spelling, e.g. "iq-entries") to @p value on @p cfg,
 * through its row of the knob table (knobs()).
 *
 * @return false with @p error set on an unknown key, a value that does
 *         not parse, or one outside the knob's range (Knob::check)
 */
bool applyOverride(SimConfig &cfg, const std::string &key,
                   const std::string &value, std::string &error);

/** Apply every recorded override; fatal-free, returns false on error. */
bool applyOverrides(SimConfig &cfg, const Options &opts,
                    std::string &error);

/** The CLI override keys, for `--help` and the tests. */
const std::vector<std::string> &overrideKeys();

/**
 * Parse @p args (argv[1:]) into @p opts.
 *
 * @return false with @p error set on a malformed flag. Unknown
 *         experiment names parse fine and are rejected by runCli().
 */
bool parseArgs(const std::vector<std::string> &args, Options &opts,
               std::string &error);

/** One registered experiment subcommand. */
struct Experiment
{
    std::string name;     ///< Subcommand, e.g. "fig4".
    std::string summary;  ///< One-line description for `mtdae list`.
};

/** Registry of every experiment subcommand, in display order. */
const std::vector<Experiment> &experiments();

/** True when @p name names a registered experiment. */
bool isExperiment(const std::string &name);

/**
 * A result table in long format: one header, uniform rows. Every
 * experiment produces exactly one of these; the driver renders it as a
 * pretty table, a CSV file and/or JSON.
 */
struct ResultSet
{
    std::string name;  ///< Basename for the CSV file ("fig4").
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;

    /**
     * Per-stage wall-clock breakdown summed over every job of the
     * sweep; only populated (profiled == true) under --profile. Kept
     * out of header/rows so the CSV encoding never changes shape.
     */
    StageProfile profile;
    bool profiled = false;
};

/**
 * Run experiment @p opts.experiment and return its rows.
 * Requires isExperiment(opts.experiment); panics otherwise.
 * Progress lines go to @p err unless opts.quiet.
 *
 * @throws ConfigError when an override yields an invalid machine
 * @throws dsl::DslError when a kernel file cannot be read or compiled
 */
ResultSet runExperiment(const Options &opts, std::ostream &err);

/** Serialise @p rs as a JSON object {"experiment", "rows": [...]}. */
void writeJson(const ResultSet &rs, std::ostream &os);

/**
 * Full driver: parse, dispatch, emit. This is main() minus argv
 * plumbing, so the tests can cover the error paths.
 *
 * @return process exit code (0 ok, 2 usage error).
 */
int runCli(const std::vector<std::string> &args, std::ostream &out,
           std::ostream &err);

/** Print usage text. */
void printHelp(std::ostream &os);

} // namespace mtdae::cli

#endif // MTDAE_HARNESS_CLI_HH
