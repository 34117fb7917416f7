#include "memory/memory_system.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace mtdae {

MemorySystem::MemorySystem(const SimConfig &cfg)
    : lineBits_(std::uint32_t(std::countr_zero(cfg.l1LineBytes))),
      ports_(cfg.l1Ports),
      l1HitLatency_(cfg.l1HitLatency),
      l2Latency_(cfg.l2Latency),
      transferCycles_(cfg.lineTransferCycles()),
      perfectL2_(cfg.perfectL2),
      lines_(cfg.l1Bytes / cfg.l1LineBytes),
      mshrs_(cfg.mshrs),
      dram_(cfg),
      l2_(cfg, dram_)
{
    MTDAE_ASSERT(std::has_single_bit(cfg.l1LineBytes),
                 "the L1 line size must be a power of two");
    const std::uint32_t frames = cfg.l1Bytes / cfg.l1LineBytes;
    MTDAE_ASSERT((frames & (frames - 1)) == 0,
                 "direct-mapped L1 needs a power-of-two frame count");
    frameBits_ = std::countr_zero(frames);
    frameMask_ = frames - 1;
}

void
MemorySystem::beginCycle(Cycle now)
{
    currentCycle_ = now;
    portsUsed_ = 0;
    // Recycle MSHRs whose fills completed; the frame becomes a normal
    // valid (and possibly dirty) line. The earliest-fill watermark makes
    // the common no-fill-due cycle a single comparison instead of a
    // full MSHR scan.
    if (now < nextFillAt_)
        return;
    Cycle next = kNoCycle;
    for (auto &m : mshrs_) {
        if (!m.valid)
            continue;
        if (m.readyAt <= now) {
            Line &line = lines_[m.frame];
            MTDAE_ASSERT(line.pendingMshr >= 0, "fill without pending line");
            line.pendingMshr = -1;
            line.valid = true;
            line.tag = tagOf(m.lineAddr);
            if (m.makeDirty)
                line.dirty = true;
            m.valid = false;
            MTDAE_ASSERT(mshrsInUse_ > 0, "MSHR accounting underflow");
            --mshrsInUse_;
        } else if (m.readyAt < next) {
            next = m.readyAt;
        }
    }
    nextFillAt_ = next;
}

bool
MemorySystem::holds(std::uint64_t line) const
{
    const Line &l1 = lines_[frameOf(line)];
    // An MSHR fills exactly one frame and a frame has at most one
    // filling MSHR, so the frame's pending index finds it in O(1).
    if (l1.pendingMshr >= 0)
        return mshrs_[std::size_t(l1.pendingMshr)].lineAddr == line;
    return l1.valid && l1.tag == tagOf(line);
}

MemReject
MemorySystem::refusalOf(std::uint64_t line) const
{
    if (portsUsed_ >= ports_)
        return MemReject::NoPort;
    // A resident line hits and a filling one merges; another line waits
    // for a filling frame, and a primary miss for a free MSHR.
    if (holds(line))
        return MemReject::None;
    if (lines_[frameOf(line)].pendingMshr >= 0)
        return MemReject::Conflict;
    return mshrFree() ? MemReject::None : MemReject::NoMshr;
}

MemResult
MemorySystem::access(Addr addr, bool is_store, Cycle now)
{
    MTDAE_ASSERT(now == currentCycle_, "access outside beginCycle interval");
    MemResult res;
    const std::uint64_t line = lineOf(addr);
    res.reject = refusalOf(line);
    if (res.reject != MemReject::None)
        return res;
    ++portsUsed_;
    res.accepted = true;

    const std::uint32_t frame = frameOf(line);
    Line &l1 = lines_[frame];

    // Secondary miss: refusalOf() let a pending fill through only for
    // the same line, so merge into it. Counted as a delayed hit for the
    // miss-ratio statistics.
    if (l1.pendingMshr >= 0) {
        Mshr &m = mshrs_[std::size_t(l1.pendingMshr)];
        res.merged = true;
        res.readyAt = m.readyAt;
        if (is_store) {
            m.makeDirty = true;
            stats_.storeMiss.event(false);
        } else {
            stats_.loadMiss.event(false);
        }
        stats_.mergedMisses += 1;
        return res;
    }

    // Hit on a resident line.
    if (l1.valid && l1.tag == tagOf(line)) {
        res.hit = true;
        res.readyAt = now + l1HitLatency_;
        if (is_store) {
            l1.dirty = true;
            stats_.storeMiss.event(false);
        } else {
            stats_.loadMiss.event(false);
        }
        return res;
    }

    // Primary miss: refusalOf() found an MSHR free.
    const auto m = std::find_if(mshrs_.begin(), mshrs_.end(),
                                [](const Mshr &x) { return !x.valid; });
    MTDAE_ASSERT(m != mshrs_.end(), "MSHR accounting out of sync");

    // Dirty victim: schedule its write-back transfer on the shared bus
    // ahead of the fill (the victim leaves before the new line arrives).
    if (l1.valid && l1.dirty) {
        const Cycle wb_crossed = bus_.reserve(now, transferCycles_);
        if (!perfectL2_)
            l2_.writeback((l1.tag << frameBits_) | frame, wb_crossed);
        stats_.writebacks += 1;
    }

    // Fill. Perfect L2 (the paper's model): the line is produced after
    // exactly the L2 access latency. Finite backend: the L2 services
    // the request — possibly all the way out to DRAM — and hands the
    // line over when it reaches the L2's output. Either way the L1-L2
    // bus then carries it, FIFO with other transfers.
    const Cycle backend_ready =
        perfectL2_ ? now + l2Latency_ : l2_.read(line, now);
    const Cycle fill_done = bus_.reserve(backend_ready, transferCycles_);
    stats_.fillLatencySum += fill_done - now;

    m->valid = true;
    m->lineAddr = line;
    m->readyAt = fill_done;
    m->makeDirty = is_store;
    m->frame = frame;
    ++mshrsInUse_;
    if (fill_done < nextFillAt_)
        nextFillAt_ = fill_done;

    l1.pendingMshr = static_cast<std::int32_t>(m - mshrs_.begin());
    l1.valid = false;
    l1.dirty = false;

    res.readyAt = fill_done;
    if (is_store)
        stats_.storeMiss.event(true);
    else
        stats_.loadMiss.event(true);
    return res;
}

Cycle
MemorySystem::nextEventCycle(Cycle now) const
{
    Cycle next = nextFillAt_ > now ? nextFillAt_ : kNoCycle;
    if (bus_.freeAt() > now && bus_.freeAt() < next)
        next = bus_.freeAt();
    if (!perfectL2_) {
        const Cycle l2 = l2_.nextEventCycle(now);
        if (l2 < next)
            next = l2;
        const Cycle dram = dram_.nextEventCycle(now);
        if (dram < next)
            next = dram;
    }
    return next;
}

void
MemorySystem::resetStats(Cycle now)
{
    stats_.reset();
    bus_.resetStats(now);
    l2_.resetStats();
    dram_.resetStats(now);
}

void
MemorySystem::save(ByteWriter &w) const
{
    w.u64(lines_.size());
    for (const Line &l : lines_) {
        w.u64(l.tag);
        w.b(l.valid);
        w.b(l.dirty);
        w.i32(l.pendingMshr);
    }
    w.u64(mshrs_.size());
    for (const Mshr &m : mshrs_) {
        w.b(m.valid);
        w.u64(m.lineAddr);
        w.u64(m.readyAt);
        w.b(m.makeDirty);
        w.u32(m.frame);
    }
    w.u32(mshrsInUse_);
    w.u32(portsUsed_);
    w.u64(currentCycle_);
    bus_.save(w);
    dram_.save(w);
    l2_.save(w);
    w.u64(stats_.loadMiss.num);
    w.u64(stats_.loadMiss.den);
    w.u64(stats_.storeMiss.num);
    w.u64(stats_.storeMiss.den);
    w.u64(stats_.mergedMisses);
    w.u64(stats_.writebacks);
    w.u64(stats_.fillLatencySum);
}

void
MemorySystem::restore(ByteReader &r)
{
    if (r.u64() != lines_.size())
        throw SnapshotError("L1 frame count mismatch in snapshot");
    for (Line &l : lines_) {
        l.tag = r.u64();
        l.valid = r.b();
        l.dirty = r.b();
        l.pendingMshr = r.i32();
    }
    if (r.u64() != mshrs_.size())
        throw SnapshotError("L1 MSHR count mismatch in snapshot");
    for (Mshr &m : mshrs_) {
        m.valid = r.b();
        m.lineAddr = r.u64();
        m.readyAt = r.u64();
        m.makeDirty = r.b();
        m.frame = r.u32();
    }
    mshrsInUse_ = r.u32();
    portsUsed_ = r.u32();
    currentCycle_ = r.u64();
    // refusal(), access() and the fill recycle rely on the MSHRs, their
    // frames and the in-use count agreeing.
    std::uint32_t valid = 0;
    for (std::size_t i = 0; i < mshrs_.size(); ++i) {
        if (!mshrs_[i].valid)
            continue;
        ++valid;
        if (mshrs_[i].frame >= lines_.size() ||
            lines_[mshrs_[i].frame].pendingMshr != std::int32_t(i))
            throw SnapshotError("L1 MSHRs and frames disagree in snapshot");
    }
    for (const Line &l : lines_)
        if (l.pendingMshr >= 0 &&
            (std::size_t(l.pendingMshr) >= mshrs_.size() ||
             !mshrs_[std::size_t(l.pendingMshr)].valid))
            throw SnapshotError("L1 MSHRs and frames disagree in snapshot");
    if (valid != mshrsInUse_)
        throw SnapshotError("L1 MSHR count disagrees in snapshot");
    // Rebuild the derived earliest-fill watermark from the MSHR state.
    nextFillAt_ = kNoCycle;
    for (const Mshr &m : mshrs_)
        if (m.valid && m.readyAt < nextFillAt_)
            nextFillAt_ = m.readyAt;
    bus_.restore(r);
    dram_.restore(r);
    l2_.restore(r);
    stats_.loadMiss.num = r.u64();
    stats_.loadMiss.den = r.u64();
    stats_.storeMiss.num = r.u64();
    stats_.storeMiss.den = r.u64();
    stats_.mergedMisses = r.u64();
    stats_.writebacks = r.u64();
    stats_.fillLatencySum = r.u64();
}

} // namespace mtdae
