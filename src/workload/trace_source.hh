/**
 * @file
 * Trace sources: lazily expand kernels into dynamic instruction streams.
 * The core consumes TraceInst records one at a time (trace-driven
 * simulation, as in the paper); nothing is ever materialised in memory.
 */

#ifndef MTDAE_WORKLOAD_TRACE_SOURCE_HH
#define MTDAE_WORKLOAD_TRACE_SOURCE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/types.hh"
#include "isa/inst.hh"
#include "workload/kernel.hh"

namespace mtdae {

/**
 * Abstract producer of a dynamic instruction trace.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next instruction.
     * @return false when the trace is exhausted (@p out untouched)
     */
    virtual bool next(TraceInst &out) = 0;

    /** Identifier for reports. */
    virtual const std::string &name() const = 0;

    /**
     * Serialize the source's read position and RNG streams so a
     * checkpoint-restored simulation resumes the trace exactly where
     * it was. Sources that cannot be checkpointed keep the default,
     * which throws SnapshotError.
     */
    virtual void save(ByteWriter &w) const;

    /** Restore state saved by save() on an identically built source. */
    virtual void restore(ByteReader &r);
};

/**
 * Cloneable recipe for the trace sources of one simulation.
 *
 * A factory is an immutable description of a workload binding; calling
 * make() materialises a fresh, independent set of per-context sources.
 * Sweep jobs (src/harness/sweep.hh) each own a clone of their factory
 * and build their own sources, so concurrently running simulations
 * share no mutable workload state.
 */
class TraceSourceFactory
{
  public:
    virtual ~TraceSourceFactory() = default;

    /**
     * Build one fresh trace source per hardware context.
     *
     * @param num_threads hardware contexts of the target machine
     * @param seed        base RNG seed (SimConfig::seed of the run)
     */
    virtual std::vector<std::unique_ptr<TraceSource>>
    make(std::uint32_t num_threads, std::uint64_t seed) const = 0;

    /** Deep-copy this recipe (factories are immutable, so this is cheap). */
    virtual std::unique_ptr<TraceSourceFactory> clone() const = 0;

    /** Workload identifier for labels and reports. */
    virtual const std::string &name() const = 0;

    /**
     * Canonical identity string for the warm-start prefix key: two
     * factories with equal fingerprints must build byte-identical
     * sources from equal (num_threads, seed). Factories whose name
     * already pins the workload down keep this default; parameterised
     * factories must fold their parameters in.
     */
    virtual std::string fingerprint() const { return name(); }
};

/**
 * Expands a Kernel into a trace: iterates the loop body, materialising
 * effective addresses from the address streams, branch outcomes from the
 * configured probabilities, and the back-edge from the trip count.
 */
class KernelTraceSource : public TraceSource
{
  public:
    /**
     * @param kernel   kernel to expand; Kernel::validate() checks it here
     * @param mem_base  base of this instance's data region
     * @param pc_base   base of this instance's code region
     * @param seed     RNG seed (gathers and data-dependent branches)
     * @param iterations loop trip count (default: effectively unbounded)
     */
    KernelTraceSource(Kernel kernel, Addr mem_base, Addr pc_base,
                      std::uint64_t seed,
                      std::uint64_t iterations = std::uint64_t(1) << 62);

    /**
     * Expand a kernel shared with other sources, without a copy.
     *
     * @param kernel an immutable kernel Kernel::validate() accepted
     *               (KernelBuilder::build() validates every kernel it
     *               builds, so every compiled kernel qualifies)
     */
    KernelTraceSource(std::shared_ptr<const Kernel> kernel, Addr mem_base,
                      Addr pc_base, std::uint64_t seed,
                      std::uint64_t iterations = std::uint64_t(1) << 62);

    bool next(TraceInst &out) override;
    const std::string &name() const override { return kernel_->name; }
    void save(ByteWriter &w) const override;
    void restore(ByteReader &r) override;

    /** Instructions emitted so far. */
    std::uint64_t emitted() const { return emitted_; }

    /** The expanded kernel. */
    const Kernel &kernel() const { return *kernel_; }

  private:
    Addr streamAddr(int stream_id);

    std::shared_ptr<const Kernel> kernel_;
    Addr pcBase_;
    Rng rng_;
    std::uint64_t iterations_;

    std::vector<Addr> streamBase_;    ///< Resolved base per stream.
    std::vector<std::uint64_t> streamOff_;  ///< Current offset per stream.

    std::uint64_t iter_ = 0;
    std::size_t opIdx_ = 0;
    std::uint64_t emitted_ = 0;
    bool done_ = false;
};

/**
 * Interleaves several benchmark sources into one thread's trace:
 * "each thread consists of a sequence of traces from all SpecFP95
 * programs, in a different order for each thread" (paper §3). Segments of
 * @p segment_insts instructions are taken from each benchmark in turn;
 * each benchmark's memory and predictor state persists across segments.
 */
class SequenceTraceSource : public TraceSource
{
  public:
    /**
     * @param sources   per-benchmark sources, already in this thread's order
     * @param segment_insts instructions per benchmark visit
     */
    SequenceTraceSource(
        std::vector<std::unique_ptr<KernelTraceSource>> sources,
        std::uint64_t segment_insts);

    bool next(TraceInst &out) override;
    const std::string &name() const override { return name_; }
    void save(ByteWriter &w) const override;
    void restore(ByteReader &r) override;

    /** Name of the benchmark currently being traced. */
    const std::string &currentBenchmark() const;

  private:
    std::vector<std::unique_ptr<KernelTraceSource>> sources_;
    std::uint64_t segmentInsts_;
    std::size_t current_ = 0;
    std::uint64_t inSegment_ = 0;
    std::string name_ = "suite-mix";
};

} // namespace mtdae

#endif // MTDAE_WORKLOAD_TRACE_SOURCE_HH
