/**
 * @file
 * Delta OTA patches ("SNPD"): a byte-level patch between two model
 * packages (or any two byte strings — the frozen "SNPF" arena is the
 * canonical wire format, so diffing consecutive epochs' packages is
 * well-defined). A patch is the sealed envelope of util/bytes.h
 * (magic "SNPD"), the same one an SNPM package uses, whose payload
 * pins both endpoints —
 *
 *   u64 src_len | u32 crc32(src) | u64 tgt_len | u32 crc32(tgt) |
 *   u32 nops | ops
 *
 * — followed by a copy/insert op stream: `copy{src_off, len}` reuses
 * a run of the source the device already holds, `insert{len, bytes}`
 * carries bytes only the target has. For incremental epochs (the
 * table grows, the rest of the arena is shared) the patch is a small
 * fraction of the full package, which is the fig06_ota_payload
 * baseline it beats.
 *
 * Application is corruption-safe in the model_codec.h sense: a
 * truncated or bit-flipped patch, a patch built against a different
 * source, an op that walks out of bounds, or a reconstruction whose
 * length/CRC misses the pinned target is *rejected* with an error
 * Status — never a crash — and the device falls back to fetching the
 * full package (fetchWithDelta below; snipping stays optional all
 * the way down).
 */

#ifndef SNIP_FLEET_DELTA_H
#define SNIP_FLEET_DELTA_H

#include <span>

#include "util/bytes.h"
#include "util/status.h"

namespace snip {
namespace fleet {

/** Patch magic ("SNPD", same style as the SNPM/SNPF magics). */
constexpr uint32_t kPatchMagic = 0x534e5044;
/** Current patch format version. */
constexpr uint32_t kPatchVersion = 1;

/** Shallow summary of a patch (header + op accounting). */
struct PatchInfo {
    uint64_t src_bytes = 0;
    uint64_t tgt_bytes = 0;
    uint32_t src_crc = 0;
    uint32_t tgt_crc = 0;
    /** Op counts and the bytes they cover. */
    uint32_t copy_ops = 0;
    uint32_t insert_ops = 0;
    uint64_t copied_bytes = 0;
    uint64_t inserted_bytes = 0;
};

/**
 * Compute a patch transforming @p src into @p tgt, appended to
 * @p out. Deterministic (greedy block matching over a rolling hash):
 * the same endpoints always produce the same patch bytes, so patch
 * sizes are reproducible fleet metrics. applyPatch(src, out) == tgt
 * always holds — in the worst case (nothing shared) the patch
 * degenerates to one insert op carrying the whole target.
 */
void diffBytes(std::span<const uint8_t> src,
               std::span<const uint8_t> tgt, util::ByteBuffer &out);

/**
 * Apply a patch to @p src and return the reconstructed target.
 * Validates the envelope (magic, version, length, payload CRC), that
 * @p src matches the pinned source length + CRC, that every op stays
 * in bounds, and that the reconstruction matches the pinned target
 * length + CRC. Any mismatch is an error Status, never UB.
 */
util::Result<util::ByteBuffer> applyPatch(std::span<const uint8_t> src,
                                          const util::ByteBuffer &patch);

/**
 * Decode header + op accounting without reconstructing the target.
 * Errors on a malformed envelope or op stream.
 */
util::Status inspectPatch(const util::ByteBuffer &patch,
                          PatchInfo *info);

/**
 * The device-side OTA receive path: try the delta, fall back to the
 * full package on any rejection. Returns the deployed bytes (always
 * byte-identical to @p full when full is the patch's target) and
 * reports via @p used_delta whether the cheap path worked.
 */
util::ByteBuffer fetchWithDelta(std::span<const uint8_t> base,
                                const util::ByteBuffer &patch,
                                const util::ByteBuffer &full,
                                bool *used_delta = nullptr);

}  // namespace fleet
}  // namespace snip

#endif  // SNIP_FLEET_DELTA_H
