/**
 * @file
 * The checkpoint/warm-start subsystem: a versioned, byte-exact capture
 * of the *complete* mutable simulator state — every Context (fetch
 * buffer, replay queue, ROB/IQ/AP-queue/SAQ contents, rename tables,
 * branch bookkeeping, sequence counters), the perceived-latency
 * trackers, the branch predictor tables, the L1/L2/DRAM hierarchy
 * (tags, LRU, dirty bits, MSHRs, bank row buffers, bus reservations),
 * the trace sources' RNG streams and read positions, the completion
 * event queue, the arbitration policies' rotations, and the statistics
 * counters.
 *
 * Contract: restoring a snapshot into a Simulator constructed from the
 * same SimConfig and the same workload recipe resumes the simulation
 * *byte-identically* — stepping the restored simulator produces exactly
 * the state sequence of the uninterrupted original (tests/
 * test_checkpoint.cc proves this at arbitrary cycles across both
 * memory backends and every policy pair).
 *
 * Serialized container layout (all little-endian; docs/CHECKPOINT.md):
 *
 *     u32  magic      'MTSS'
 *     u32  version    kSnapshotVersion
 *     u64  configHash configFingerprint() of the producing SimConfig
 *     u64  payloadLen
 *     ...  payload    the component state, in a fixed traversal order
 *     u64  checksum   FNV-1a over the payload bytes
 *
 * The version covers the payload encoding: any change to a component's
 * save()/restore() or to the traversal order must bump
 * kSnapshotVersion. Mismatched magic/version/length/checksum and
 * mismatched config hashes throw SnapshotError — a snapshot is input,
 * not simulator state, so rejection is an exception, never a panic.
 */

#ifndef MTDAE_CORE_SNAPSHOT_HH
#define MTDAE_CORE_SNAPSHOT_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/serialize.hh"

namespace mtdae {

/** Container magic: "MTSS" (mtdae simulator snapshot). */
inline constexpr std::uint32_t kSnapshotMagic = 0x4d545353u;

/** Payload-encoding version; bump on any serialized-format change. */
inline constexpr std::uint32_t kSnapshotVersion = 3;

/**
 * A captured simulator state: the config fingerprint it belongs to and
 * the opaque component payload. Produced by Simulator::saveSnapshot(),
 * consumed by Simulator::restoreSnapshot(); toBytes()/fromBytes() are
 * the explicit versioned wire form.
 */
struct Snapshot
{
    std::uint64_t configHash = 0;
    std::vector<std::uint8_t> payload;

    /** Serialize to the versioned, checksummed container form. */
    std::vector<std::uint8_t> toBytes() const;

    /**
     * Parse a container produced by toBytes().
     * @throws SnapshotError on bad magic, unsupported version,
     *         truncation, trailing bytes or checksum mismatch
     */
    static Snapshot fromBytes(const std::vector<std::uint8_t> &bytes);
};

/**
 * Serialize every SimConfig field, in declaration order, into @p w.
 * The canonical byte form behind configFingerprint(); also the basis
 * of the warm-start prefix key (src/harness/sweep.hh).
 */
void serializeConfig(const SimConfig &cfg, ByteWriter &w);

/**
 * Canonical hash of a full configuration (FNV-1a over
 * serializeConfig()). Equal fingerprints mean identically constructed
 * simulators, which is what makes restoring a snapshot into a freshly
 * built Simulator sound: all construction-derived state (table sizes,
 * stream layouts, policy objects) is a pure function of the config and
 * workload, so only mutable state needs to travel in the payload.
 */
std::uint64_t configFingerprint(const SimConfig &cfg);

} // namespace mtdae

#endif // MTDAE_CORE_SNAPSHOT_HH
