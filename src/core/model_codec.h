/**
 * @file
 * OTA packaging of the deployable SnipModel (paper Fig. 10 steps
 * 4–5: ship the PFI-trimmed table to the phone, then keep pushing
 * updated tables as re-profiling runs). A package is the sealed
 * envelope of util/bytes.h (magic "SNPM", version, payload length,
 * payload, CRC-32 of the payload) whose payload carries the game
 * name, a snapshot of the field schema, one record per selected
 * event type (its profiled record count and held-out error, what the
 * confidence gate and `snip inspect` read), and the lookup table.
 *
 * Version 3 carries the table as a "SNPF" frozen arena
 * (frozen_table.h) whose on-wire bytes *are* the runtime's entry
 * storage, and which is the one home of each type's selected fields:
 * decode fills every TypeModel's selection (ids and bytes) from the
 * arena, empty for a type the arena does not deploy. deployModel()
 * attaches a bounds-checked zero-copy FrozenTable view over the
 * package bytes, and derives each field's event/history flag, each
 * entry's bucket and scan charge from the stored keys and the schema,
 * so the package carries no index, flags or byte tallies.
 * unpackModel() is the same deploy over an owned copy of the
 * caller's bytes, for readers
 * whose buffer does not outlive the model (the CLI, federated
 * merging, re-learning). Either way packModel() writes the arena
 * back verbatim, so pack→unpack→pack is byte-identical. Any other
 * version is rejected.
 *
 * Unpacking is corruption-safe: a truncated, bit-flipped, or
 * version-mismatched package — including a malformed arena behind a
 * valid CRC — is *rejected* with an error Status — never a crash —
 * and the runtime keeps executing at baseline (snipping is always
 * optional). See DESIGN.md "OTA model package".
 */

#ifndef SNIP_CORE_MODEL_CODEC_H
#define SNIP_CORE_MODEL_CODEC_H

#include <memory>
#include <string>

#include "core/snip.h"
#include "util/bytes.h"
#include "util/status.h"

namespace snip {
namespace core {

/** Package magic ("SNPM" in the trace_log magic style). */
constexpr uint32_t kModelMagic = 0x534e504d;
/** Current package format version (the selection ships only in the
 *  frozen-arena table section). */
constexpr uint32_t kModelVersion = 3;

/** Serialize @p model into the OTA envelope, appended to @p out. */
void packModel(const SnipModel &model, util::ByteBuffer &out);

/**
 * Validate (magic, version, length, CRC) and decode a package read
 * from the start of @p buf: deployModel() over an owned copy of its
 * bytes, so the model does not borrow @p buf. On any malformed input
 * — truncation, bit corruption, bad counts or field ids, unsupported
 * version — returns an error Status and no model.
 */
util::Result<SnipModel> unpackModel(const util::ByteBuffer &buf);

/**
 * Device-side deploy: validate the envelope and attach the model's
 * table as a zero-copy FrozenTable view over the package bytes
 * (the package buffer is kept alive by the returned model's view).
 * Malformed input — wrong CRC, or an arena whose offsets/ids/geometry
 * fail validation even behind a correct CRC — is rejected with an
 * error Status.
 */
util::Result<SnipModel>
deployModel(std::shared_ptr<const util::ByteBuffer> pkg);

/** Shallow header/integrity summary of a package. */
struct PackageInfo {
    uint32_t version = 0;
    /** Payload bytes between header and CRC footer. */
    uint32_t payload_bytes = 0;
    /** CRC stored in the footer. */
    uint32_t crc = 0;
    /** Footer CRC matches the payload bytes actually present. */
    bool crc_ok = false;
};

/**
 * Check the envelope without decoding the payload. Errors on a
 * malformed header or truncated payload; CRC mismatch is reported
 * via info->crc_ok so inspect tooling can still show the header.
 */
util::Status inspectPackage(const util::ByteBuffer &buf,
                           PackageInfo *info);

/** Pack and write to a file. */
util::Status saveModel(const SnipModel &model,
                       const std::string &path);

/** Read a file and unpack; error Status on I/O or corruption. */
util::Result<SnipModel> loadModel(const std::string &path);

/** Size in bytes of the packed OTA payload of @p model. */
uint64_t packedModelBytes(const SnipModel &model);

}  // namespace core
}  // namespace snip

#endif  // SNIP_CORE_MODEL_CODEC_H
