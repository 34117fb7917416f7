#include "core/snapshot.hh"

#include <type_traits>
#include <variant>

#include "core/simulator.hh"

namespace mtdae {

void
serializeConfig(const SimConfig &cfg, ByteWriter &w)
{
    for (const Knob &k : knobs()) {
        if (!k.fingerprinted)
            continue;
        std::visit(
            [&](auto field) {
                const auto &v = cfg.*field;
                using T = std::decay_t<decltype(v)>;
                if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
                    w.u8(std::uint8_t(v));
                } else if constexpr (std::is_same_v<T, std::uint32_t>) {
                    w.u32(v);
                } else if constexpr (std::is_same_v<T, std::uint64_t>) {
                    w.u64(v);
                } else {
                    w.u64(v.size());
                    for (const std::uint32_t entry : v)
                        w.u32(entry);
                }
            },
            k.field);
    }
}

std::uint64_t
configFingerprint(const SimConfig &cfg)
{
    ByteWriter w;
    serializeConfig(cfg, w);
    return fnv1a(w.data());
}

std::vector<std::uint8_t>
Snapshot::toBytes() const
{
    ByteWriter w;
    w.u32(kSnapshotMagic);
    w.u32(kSnapshotVersion);
    w.u64(configHash);
    w.u64(payload.size());
    for (const std::uint8_t byte : payload)
        w.u8(byte);
    w.u64(fnv1a(payload));
    return w.take();
}

Snapshot
Snapshot::fromBytes(const std::vector<std::uint8_t> &bytes)
{
    ByteReader r(bytes);
    if (r.u32() != kSnapshotMagic)
        throw SnapshotError("not an mtdae snapshot (bad magic)");
    const std::uint32_t version = r.u32();
    if (version != kSnapshotVersion)
        throw SnapshotError(
            "unsupported snapshot version " + std::to_string(version) +
            " (this build reads version " +
            std::to_string(kSnapshotVersion) + ")");
    Snapshot snap;
    snap.configHash = r.u64();
    const std::uint64_t len = r.u64();
    if (len > r.remaining())
        throw SnapshotError("snapshot payload truncated");
    snap.payload.resize(std::size_t(len));
    for (std::uint8_t &byte : snap.payload)
        byte = r.u8();
    const std::uint64_t checksum = r.u64();
    if (!r.atEnd())
        throw SnapshotError("trailing bytes after snapshot container");
    if (checksum != fnv1a(snap.payload))
        throw SnapshotError("snapshot payload checksum mismatch");
    return snap;
}

Snapshot
Simulator::saveSnapshot()
{
    // The image is the stepped run's: windows sampled up to now_, and
    // every perceived stall charged to its miss.
    syncAllWindows();
    derived_.chargeAllStalls(contexts_);
    ByteWriter w;
    w.u64(now_);
    mem_.save(w);
    w.u64(contexts_.size());
    for (const auto &ctxp : contexts_)
        ctxp->save(w);

    // The completion calendar bucket by bucket from now_, each bucket
    // in push order: re-pushing in this order rebuilds every cycle's
    // firing order.
    w.u64(events_.size());
    events_.forEach(now_, [&](const Event &ev) {
        w.u64(ev.at);
        w.u32(ev.tid);
        w.u64(contexts_[ev.tid]->rob.indexOf(ev.inst));
    });

    fetchPolicy_.save(w);
    issuePolicy_.save(w);

    for (const std::uint64_t count : slotsAp_.counts)
        w.u64(count);
    for (const std::uint64_t count : slotsEp_.counts)
        w.u64(count);
    w.u64(totalGraduated_);
    w.u64(measureStart_);
    w.u64(instsBase_);
    w.u64(mispredicts_);
    w.u64(condBranches_);
    w.u64(forwardedLoads_);
    w.u64(lastGraduation_);

    Snapshot snap;
    snap.configHash = configFingerprint(cfg_);
    snap.payload = w.take();
    return snap;
}

void
Simulator::restoreSnapshot(const Snapshot &snap)
{
    if (snap.configHash != configFingerprint(cfg_))
        throw SnapshotError(
            "snapshot belongs to a different configuration "
            "(config hash mismatch)");

    ByteReader r(snap.payload);
    now_ = r.u64();
    mem_.restore(r);
    if (r.u64() != contexts_.size())
        throw SnapshotError("context count mismatch in snapshot");
    for (auto &ctxp : contexts_)
        ctxp->restore(r);

    // Every in-flight (Issued) instruction completes through exactly one
    // event, and every event completes an in-flight instruction.
    std::vector<std::vector<bool>> has_event;
    std::size_t in_flight = 0;
    for (const auto &ctxp : contexts_) {
        has_event.emplace_back(ctxp->rob.size(), false);
        for (const DynInst &di : ctxp->rob)
            in_flight += di.state == InstState::Issued;
    }
    events_.clear();
    const std::uint64_t num_events = r.u64();
    if (num_events != in_flight)
        throw SnapshotError("completion events do not match the issued "
                            "instructions in snapshot");
    for (std::uint64_t n = 0; n < num_events; ++n) {
        Event ev{};
        ev.at = r.u64();
        if (ev.at < now_)
            throw SnapshotError("completion event before the snapshot's "
                                "cycle");
        ev.tid = r.u32();
        if (ev.tid >= contexts_.size())
            throw SnapshotError("event thread id out of range in snapshot");
        const std::uint64_t idx = r.u64();
        Context &ctx = *contexts_[ev.tid];
        if (idx >= ctx.rob.size())
            throw SnapshotError("event ROB index out of range in snapshot");
        ev.inst = &ctx.rob[std::size_t(idx)];
        if (ev.inst->state != InstState::Issued)
            throw SnapshotError("completion event of an instruction not "
                                "in flight in snapshot");
        if (has_event[ev.tid][idx])
            throw SnapshotError("two completion events for one "
                                "instruction in snapshot");
        has_event[ev.tid][idx] = true;
        events_.push(ev);
    }

    fetchPolicy_.restore(r, now_);
    issuePolicy_.restore(r, now_);

    for (std::uint64_t &count : slotsAp_.counts)
        count = r.u64();
    for (std::uint64_t &count : slotsEp_.counts)
        count = r.u64();
    totalGraduated_ = r.u64();
    measureStart_ = r.u64();
    instsBase_ = r.u64();
    mispredicts_ = r.u64();
    condBranches_ = r.u64();
    forwardedLoads_ = r.u64();
    lastGraduation_ = r.u64();

    if (!r.atEnd())
        throw SnapshotError("trailing bytes in snapshot payload");

    // Derived state: the live policy keys follow the restored contexts,
    // the windows are synced to now_, every stall class awaits
    // recomputation, no load or store waits (a head that waited
    // re-attempts once, is refused without side effects, and waits
    // again), and every thread is awake to dispatch and graduate.
    derived_.rebuild(contexts_, now_);
}

} // namespace mtdae
