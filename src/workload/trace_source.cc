#include "workload/trace_source.hh"

#include "common/log.hh"

namespace mtdae {

namespace {

/** Round @p v up to a multiple of @p align. */
std::uint64_t
roundUp(std::uint64_t v, std::uint64_t align)
{
    return (v + align - 1) / align * align;
}

/** @p kernel, validated, as an immutable shared kernel. */
std::shared_ptr<const Kernel>
validated(Kernel kernel)
{
    kernel.validate();
    return std::make_shared<const Kernel>(std::move(kernel));
}

} // namespace

void
TraceSource::save(ByteWriter &w) const
{
    (void)w;
    throw SnapshotError("trace source '" + name() +
                        "' does not support checkpointing");
}

void
TraceSource::restore(ByteReader &r)
{
    (void)r;
    throw SnapshotError("trace source '" + name() +
                        "' does not support checkpointing");
}

KernelTraceSource::KernelTraceSource(Kernel kernel, Addr mem_base,
                                     Addr pc_base, std::uint64_t seed,
                                     std::uint64_t iterations)
    : KernelTraceSource(validated(std::move(kernel)), mem_base, pc_base,
                        seed, iterations)
{}

KernelTraceSource::KernelTraceSource(std::shared_ptr<const Kernel> kernel,
                                     Addr mem_base, Addr pc_base,
                                     std::uint64_t seed,
                                     std::uint64_t iterations)
    : kernel_(std::move(kernel)),
      pcBase_(pc_base),
      rng_(seed),
      iterations_(iterations ? iterations : 1),
      streamOff_(kernel_->streams.size(), 0)
{
    // Lay the streams out back to back, 4 KB-rounded with a 4 KB gap, as
    // a compiler/allocator would. Cache-resident stream sets therefore
    // occupy disjoint direct-mapped frames, while multi-MB streams
    // naturally spread over the whole index space.
    Addr base = mem_base;
    for (std::size_t i = 0; i < kernel_->streams.size(); ++i) {
        const StreamSpec &s = kernel_->streams[i];
        streamBase_.push_back(base);
        base += roundUp(s.footprint, 4096) + 4096;
    }
}

Addr
KernelTraceSource::streamAddr(int stream_id)
{
    const StreamSpec &s = kernel_->streams[stream_id];
    std::uint64_t &off = streamOff_[stream_id];
    Addr a;
    switch (s.kind) {
      case StreamSpec::Kind::Strided:
        a = streamBase_[stream_id] + off;
        if (s.stride >= 0) {
            off += std::uint64_t(s.stride);
            if (off >= s.footprint)
                off -= s.footprint;
        } else {
            const std::uint64_t back = std::uint64_t(-s.stride);
            off = off >= back ? off - back : off + s.footprint - back;
        }
        return a;
      case StreamSpec::Kind::Gather:
        return streamBase_[stream_id] +
               rng_.uniform(s.footprint / s.elemBytes) * s.elemBytes;
      case StreamSpec::Kind::Chain: {
        // Dependent-load walk: the next element index is an LCG of the
        // current one. a=5, c=17 satisfy Hull-Dobell for power-of-two
        // moduli, so power-of-two element counts walk a full-period
        // permutation; the state is just streamOff_, which save() /
        // restore() already serialize.
        a = streamBase_[stream_id] + off;
        const std::uint64_t slots = s.footprint / s.elemBytes;
        const std::uint64_t idx = off / s.elemBytes;
        off = ((idx * 5 + 17) % slots) * s.elemBytes;
        return a;
      }
    }
    MTDAE_PANIC("bad stream kind");
}

bool
KernelTraceSource::next(TraceInst &out)
{
    if (done_)
        return false;

    const KOp &o = kernel_->ops[opIdx_];

    out = TraceInst{};
    out.op = o.op;
    out.pc = pcBase_ + Addr(opIdx_) * 4;

    auto toRef = [](Opcode op, int vreg, int slot) -> RegRef {
        if (vreg < 0)
            return RegRef::none();
        // Decide the register class from the opcode operand semantics.
        bool fp;
        switch (op) {
          case Opcode::LdF:
            fp = slot < 0;  // dst fp, src int
            break;
          case Opcode::MovIF:
            fp = slot < 0;
            break;
          case Opcode::MovFI:
            fp = slot >= 0;
            break;
          case Opcode::StF:
            fp = slot == 1;  // addr int, data fp
            break;
          case Opcode::BrF:
          case Opcode::FCmp:
          case Opcode::FAdd:
          case Opcode::FSub:
          case Opcode::FMul:
          case Opcode::FDiv:
          case Opcode::FMA:
          case Opcode::FMov:
            fp = true;
            break;
          default:
            fp = false;
        }
        return fp ? RegRef::fpReg(std::uint8_t(vreg))
                  : RegRef::intReg(std::uint8_t(vreg));
    };

    out.dst = toRef(o.op, o.dst, -1);
    out.src[0] = toRef(o.op, o.src0, 0);
    out.src[1] = toRef(o.op, o.src1, 1);
    out.src[2] = toRef(o.op, o.src2, 2);

    if (o.stream >= 0)
        out.addr = streamAddr(o.stream);

    std::size_t next_idx = opIdx_ + 1;
    if (o.backedge) {
        out.taken = iter_ + 1 < iterations_;
        if (out.taken) {
            iter_ += 1;
            next_idx = 0;
        } else {
            done_ = true;
        }
    } else if (isCondBranch(o.op)) {
        out.taken = rng_.bernoulli(o.takenProb);
        if (out.taken && o.skip > 0)
            next_idx += o.skip;
    }

    opIdx_ = next_idx;
    emitted_ += 1;
    return true;
}

void
KernelTraceSource::save(ByteWriter &w) const
{
    // The kernel, layout (streamBase_) and trip count are construction
    // parameters; only the read position and RNG stream are mutable.
    for (const std::uint64_t word : rng_.state())
        w.u64(word);
    w.u64(streamOff_.size());
    for (const std::uint64_t off : streamOff_)
        w.u64(off);
    w.u64(iter_);
    w.u64(opIdx_);
    w.u64(emitted_);
    w.b(done_);
}

void
KernelTraceSource::restore(ByteReader &r)
{
    std::array<std::uint64_t, 4> state;
    for (std::uint64_t &word : state)
        word = r.u64();
    rng_.setState(state);
    if (r.u64() != streamOff_.size())
        throw SnapshotError("kernel stream count mismatch in snapshot");
    for (std::uint64_t &off : streamOff_)
        off = r.u64();
    iter_ = r.u64();
    opIdx_ = r.u64();
    emitted_ = r.u64();
    done_ = r.b();
    if (!done_ && opIdx_ >= kernel_->ops.size())
        throw SnapshotError("kernel op index out of range in snapshot");
}

SequenceTraceSource::SequenceTraceSource(
    std::vector<std::unique_ptr<KernelTraceSource>> sources,
    std::uint64_t segment_insts)
    : sources_(std::move(sources)),
      segmentInsts_(segment_insts ? segment_insts : 1)
{
    MTDAE_ASSERT(!sources_.empty(), "SequenceTraceSource needs sources");
}

const std::string &
SequenceTraceSource::currentBenchmark() const
{
    return sources_[current_]->name();
}

bool
SequenceTraceSource::next(TraceInst &out)
{
    for (std::size_t attempts = 0; attempts < sources_.size(); ++attempts) {
        if (inSegment_ >= segmentInsts_) {
            inSegment_ = 0;
            current_ = (current_ + 1) % sources_.size();
        }
        if (sources_[current_]->next(out)) {
            inSegment_ += 1;
            return true;
        }
        // This benchmark ran out (finite trip count); move on.
        inSegment_ = 0;
        current_ = (current_ + 1) % sources_.size();
    }
    return false;
}

void
SequenceTraceSource::save(ByteWriter &w) const
{
    w.u64(sources_.size());
    for (const auto &src : sources_)
        src->save(w);
    w.u64(current_);
    w.u64(inSegment_);
}

void
SequenceTraceSource::restore(ByteReader &r)
{
    if (r.u64() != sources_.size())
        throw SnapshotError("sequence source count mismatch in snapshot");
    for (auto &src : sources_)
        src->restore(r);
    current_ = r.u64();
    inSegment_ = r.u64();
    if (current_ >= sources_.size())
        throw SnapshotError("sequence position out of range in snapshot");
}

} // namespace mtdae
