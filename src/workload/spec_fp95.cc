#include "workload/spec_fp95.hh"

#include "common/config.hh"
#include "workload/dsl/interp.hh"

namespace mtdae {

namespace {

/** Each built-in model compiled, and so validated, from its embedded
 *  text, once per process; immutable afterwards, so every source on
 *  every thread shares it. */
const std::vector<std::shared_ptr<const Kernel>> &
builtinKernels()
{
    static const std::vector<std::shared_ptr<const Kernel>> kernels = [] {
        std::vector<std::shared_ptr<const Kernel>> v;
        for (const BuiltinKernelText &b : builtinKernelTexts())
            v.push_back(std::make_shared<const Kernel>(
                dsl::compileKernel(std::string(b.text))));
        return v;
    }();
    return kernels;
}

/** specFp95Index(), throwing ConfigError on an unknown name. */
std::size_t
builtinIndex(const std::string &name)
{
    const std::size_t idx = specFp95Index(name);
    if (idx == specFp95Names().size())
        throw ConfigError("unknown benchmark '" + name + "'");
    return idx;
}

} // namespace

const std::vector<std::string> &
specFp95Names()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const BuiltinKernelText &b : builtinKernelTexts())
            v.emplace_back(b.name);
        return v;
    }();
    return names;
}

std::size_t
specFp95Index(const std::string &name)
{
    const auto &names = specFp95Names();
    std::size_t idx = 0;
    while (idx < names.size() && names[idx] != name)
        ++idx;
    return idx;
}

Addr
workloadRegionBase(ThreadId thread, std::size_t slot)
{
    // Per-(thread, slot) disjoint regions that share L1 frames; threads
    // are staggered by 8 KB so identical programs on different threads
    // do not collide frame-for-frame.
    return (Addr(thread) << 34) + (Addr(slot + 1) << 28) +
           Addr(thread) * 8 * 1024;
}

Addr
workloadPcBase(std::size_t slot)
{
    return Addr(slot + 1) << 20;
}

std::uint64_t
workloadSourceSeed(std::uint64_t seed, ThreadId thread, std::size_t slot)
{
    return seed * 0x9e3779b97f4a7c15ULL + (std::uint64_t(thread) << 32) +
           slot + 1;
}

Kernel
buildSpecFp95(const std::string &name)
{
    return *builtinKernels()[builtinIndex(name)];
}

std::unique_ptr<KernelTraceSource>
makeSpecFp95Source(const std::string &name, ThreadId thread,
                   std::uint64_t seed)
{
    const std::size_t idx = builtinIndex(name);
    return std::make_unique<KernelTraceSource>(
        builtinKernels()[idx], workloadRegionBase(thread, idx),
        workloadPcBase(idx), workloadSourceSeed(seed, thread, idx));
}

std::unique_ptr<SequenceTraceSource>
makeSuiteMixSource(ThreadId thread, std::uint64_t seed,
                   std::uint64_t segment_insts)
{
    const auto &names = specFp95Names();
    std::vector<std::unique_ptr<KernelTraceSource>> sources;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::size_t idx = (i + thread) % names.size();
        sources.push_back(makeSpecFp95Source(names[idx], thread, seed));
    }
    return std::make_unique<SequenceTraceSource>(std::move(sources),
                                                 segment_insts);
}

namespace {

/** The rotated full-suite workload of the paper's Section 3. */
class SuiteMixFactory : public TraceSourceFactory
{
  public:
    explicit SuiteMixFactory(std::uint64_t segment_insts)
        : segmentInsts_(segment_insts)
    {}

    std::vector<std::unique_ptr<TraceSource>>
    make(std::uint32_t num_threads, std::uint64_t seed) const override
    {
        std::vector<std::unique_ptr<TraceSource>> sources;
        for (ThreadId t = 0; t < num_threads; ++t)
            sources.push_back(
                makeSuiteMixSource(t, seed, segmentInsts_));
        return sources;
    }

    std::unique_ptr<TraceSourceFactory>
    clone() const override
    {
        return std::make_unique<SuiteMixFactory>(segmentInsts_);
    }

    const std::string &name() const override { return name_; }

    std::string
    fingerprint() const override
    {
        // The segment length parameterises the trace, so two mixes
        // with different segment sizes must never share a warm-start
        // prefix even though their display names coincide.
        return name_ + "@" + std::to_string(segmentInsts_);
    }

  private:
    std::uint64_t segmentInsts_;
    std::string name_ = "suite-mix";
};

} // namespace

std::unique_ptr<TraceSourceFactory>
makeBenchmarkFactory(const std::string &name)
{
    return dsl::makeDslFactory(
        std::string(builtinKernelTexts()[builtinIndex(name)].text));
}

std::unique_ptr<TraceSourceFactory>
makeSuiteMixFactory(std::uint64_t segment_insts)
{
    return std::make_unique<SuiteMixFactory>(segment_insts);
}

} // namespace mtdae
