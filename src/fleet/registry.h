/**
 * @file
 * Versioned model registry: the fleet backend's source of truth for
 * which SNPM packages exist per game and how they descend from each
 * other. A version id is the content digest of the whole package
 * (FNV-1a over the envelope bytes), so ids are stable across
 * processes and identical republishes are idempotent; each version
 * carries a parent pointer (the epoch it was re-learned from),
 * giving every game a CRC-checked lineage chain the delta-OTA layer
 * diffs along.
 *
 * Integrity contract: publish() refuses packages whose envelope or
 * payload CRC fails (a registry never stores a package a device
 * would reject), fetch() re-verifies the stored payload CRC before
 * handing bytes out, and lineage() re-walks parent pointers
 * verifying every hop exists — all via util::Status, never a crash.
 *
 * Thread safety: single-writer like obs::Registry; concurrent
 * readers are safe once publishing stops (all read paths are const
 * except the delta cache, which delta() guards for exact reuse).
 */

#ifndef SNIP_FLEET_REGISTRY_H
#define SNIP_FLEET_REGISTRY_H

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/bytes.h"
#include "util/status.h"

namespace snip {

namespace obs {
class Registry;
}  // namespace obs

namespace fleet {

/** Content digest of a package (0 is reserved for "no version"). */
using VersionId = uint64_t;

/** One published model epoch. */
struct ModelVersion {
    VersionId id = 0;
    /** Version this epoch was re-learned from (0 = lineage root). */
    VersionId parent = 0;
    /** Publish sequence number within the game (0-based). */
    uint32_t epoch = 0;
    /** Envelope payload CRC (the SNPM footer). */
    uint32_t crc = 0;
    /** Whole-package size on the wire. */
    uint64_t bytes = 0;
    /** The exact published bytes (shared with deploy views). */
    std::shared_ptr<const util::ByteBuffer> package;
};

class ModelRegistry
{
  public:
    /** @param obs Optional `fleet.*` metrics sink (nullptr = off). */
    explicit ModelRegistry(obs::Registry *obs = nullptr) : obs_(obs) {}

    /**
     * Validate and store a package as @p game's new head version.
     * @p parent pins the lineage explicitly; 0 chains onto the
     * current head (the continuous-learning epoch push). Returns the
     * content-digest version id. Re-publishing identical bytes is
     * idempotent (same id, no new version); a package that fails
     * integrity checks, or a parent that does not exist, is an error
     * and the registry is unchanged.
     */
    util::Result<VersionId>
    publish(const std::string &game,
            std::shared_ptr<const util::ByteBuffer> pkg,
            VersionId parent = 0);

    /** Look up one version (nullptr when unknown). */
    const ModelVersion *find(const std::string &game,
                             VersionId id) const;

    /** Newest published version of a game (nullptr when none). */
    const ModelVersion *head(const std::string &game) const;

    /**
     * Version @p behind publishes behind the head along parent
     * pointers (behind == 0 is the head itself); nullptr when the
     * lineage is shorter than that.
     */
    const ModelVersion *behindHead(const std::string &game,
                                   uint32_t behind) const;

    /**
     * The ancestry of @p id, newest first, ending at the lineage
     * root. Errors on an unknown id or a broken parent chain.
     */
    util::Result<std::vector<VersionId>>
    lineage(const std::string &game, VersionId id) const;

    /**
     * Fetch stored package bytes, re-verifying the payload CRC
     * against the stored footer first (a registry whose storage
     * rotted must not serve the corrupt bytes).
     */
    util::Result<std::shared_ptr<const util::ByteBuffer>>
    fetch(const std::string &game, VersionId id) const;

    /**
     * The SNPD patch upgrading @p from to @p to (both must be stored
     * versions of @p game). Patches are memoized per (from, to) pair
     * — a million-device push computes each cohort's patch once.
     */
    util::Result<std::shared_ptr<const util::ByteBuffer>>
    delta(const std::string &game, VersionId from, VersionId to);

    /** Published versions of a game (0 when unknown). */
    size_t versionCount(const std::string &game) const;

    /** Versions of a game in publish order (empty when unknown). */
    const std::vector<ModelVersion> &
    versions(const std::string &game) const;

    /**
     * Persist to a directory: one `<id-hex>.snpm` file per version
     * plus an `index.txt` lineage file. Creates the directory when
     * missing.
     */
    util::Status saveDir(const std::string &dir) const;

    /**
     * Load a registry persisted by saveDir(), re-validating every
     * package (digest must match its index entry, CRC must hold) and
     * every index line's epoch (it must be the one republishing the
     * lines in order assigns).
     */
    static util::Result<ModelRegistry>
    loadDir(const std::string &dir, obs::Registry *obs = nullptr);

  private:
    struct GameLine {
        /** Publish order. */
        std::vector<ModelVersion> versions;
        /** id -> index into versions. */
        std::unordered_map<VersionId, size_t> by_id;
    };

    const GameLine *line(const std::string &game) const;

    std::map<std::string, GameLine> games_;
    /** Memoized patches keyed by (from, to) content digests. */
    std::map<std::pair<VersionId, VersionId>,
             std::shared_ptr<const util::ByteBuffer>>
        deltas_;
    obs::Registry *obs_ = nullptr;
};

}  // namespace fleet
}  // namespace snip

#endif  // SNIP_FLEET_REGISTRY_H
