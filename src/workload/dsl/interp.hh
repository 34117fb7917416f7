/**
 * @file
 * Interpreter of the kernel DSL: evaluates a parsed Program against
 * KernelBuilder, producing the same Kernel a hand-written C++ builder
 * would — register ids are allocated in statement order, so the kernel
 * a text compiles to is fixed by its statements alone. The ten built-in
 * SPEC FP95 models are compiled this way from their embedded .mk texts
 * (workload/spec_fp95.hh).
 *
 * All semantic faults (unknown identifiers, type mismatches, budget
 * overruns) throw DslError with the exact source position; the
 * interpreter pre-checks every constraint Kernel::validate() panics on,
 * so no text input can crash the process.
 */

#ifndef MTDAE_WORKLOAD_DSL_INTERP_HH
#define MTDAE_WORKLOAD_DSL_INTERP_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "workload/dsl/ast.hh"
#include "workload/dsl/lexer.hh"
#include "workload/kernel.hh"
#include "workload/trace_source.hh"

namespace mtdae::dsl {

/**
 * Param values overriding the defaults declared in the kernel text,
 * e.g. from --kernel-param or a sweep grid. Later entries win on a
 * repeated name; a name no `param` declares is an error.
 */
using ParamOverrides = std::vector<std::pair<std::string, double>>;

/** A compiled kernel plus its resolved params, in declaration order. */
struct CompiledKernel
{
    Kernel kernel;
    std::vector<std::pair<std::string, double>> params;
};

/**
 * Parse, validate and evaluate kernel text.
 *
 * @throws DslError on any lexical, syntactic or semantic fault
 */
CompiledKernel compileDsl(const std::string &text,
                          const ParamOverrides &overrides = {});

/** compileDsl, keeping only the kernel. */
Kernel compileKernel(const std::string &text,
                     const ParamOverrides &overrides = {});

/**
 * Factory binding a DSL kernel to every hardware context (the factory
 * makeBenchmarkFactory returns for a built-in model): thread t runs the
 * kernel on its own region of the canonical workload layout. A kernel
 * named after one of the ten modelled benchmarks takes that benchmark's
 * layout slot, so a file with a built-in's statements runs exactly as
 * the built-in does; other names hash into the remaining slots. The
 * fingerprint folds the kernel text and the resolved param values, so
 * warm-start prefixes are only ever shared between identical workloads.
 *
 * @throws DslError when the text does not compile
 */
std::unique_ptr<TraceSourceFactory>
makeDslFactory(const std::string &text,
               const ParamOverrides &overrides = {});

/**
 * Read a kernel file whole.
 *
 * @throws DslError (position 0:0) when the file cannot be read
 */
std::string readKernelFile(const std::string &path);

} // namespace mtdae::dsl

#endif // MTDAE_WORKLOAD_DSL_INTERP_HH
