/**
 * @file
 * Fleet-scale epoch push simulation: the backend publishes a new
 * model epoch and a simulated device fleet — partitioned into
 * cohorts pinned at different staleness depths along the registry
 * lineage — fetches the update. Each cohort's devices hold the
 * version `versions_behind` publishes behind the new head, so the
 * OTA layer serves them the memoized SNPD patch from that base (or
 * the full package when the device has no usable base), and each
 * cohort's stale-version lookup hit rate is measured by replaying an
 * evaluation session against the model those devices were running
 * *before* the push, deployed zero-copy over the registry's stored
 * package — the skew across cohorts is the operational signal for
 * how much a lagging ring loses.
 *
 * Devices inside a cohort are identical by construction (same base
 * version, same patch), so a million-device epoch costs one patch
 * build + one verification + one eval session per cohort; the
 * per-device byte accounting then scales by cohort population.
 */

#ifndef SNIP_FLEET_FLEET_SIM_H
#define SNIP_FLEET_FLEET_SIM_H

#include <string>
#include <vector>

#include "core/continuous_learning.h"
#include "fleet/registry.h"

namespace snip {
namespace fleet {

/** One staleness ring of the fleet. */
struct CohortSpec {
    std::string name;
    /** Fraction of the fleet in this cohort (normalized over all). */
    double share = 0.0;
    /**
     * Publishes behind the new head the cohort's deployed version
     * sits (1 = devices hold the head's parent). A depth exceeding
     * the lineage means the devices hold nothing usable and must
     * full-fetch.
     */
    uint32_t versions_behind = 1;
};

/** Simulation knobs. */
struct FleetSimConfig {
    std::string game = "candy_crush";
    /** Fleet size the per-cohort byte accounting scales to. */
    uint64_t devices = 1000000;
    unsigned threads = 0;
    uint64_t seed = 0xf1ee7ULL;
    /** Stale-version evaluation session length (s). */
    double eval_seconds = 20.0;
    /** Optional `fleet.*` metrics sink (nullptr = off). */
    obs::Registry *obs = nullptr;
};

/** The fleet's staleness rings (stable/slow/lagging/fresh
 *  installs); pushEpoch() serves every one of them. */
std::vector<CohortSpec> defaultCohorts();

/** What one cohort saw during an epoch push. */
struct CohortReport {
    std::string name;
    uint64_t devices = 0;
    uint32_t versions_behind = 0;
    /** Version the cohort ran before the push (0 = none). */
    VersionId base_version = 0;
    /** Per-device patch size (0 when the cohort full-fetched). */
    uint64_t patch_bytes = 0;
    /** Cohort total if every device full-fetched the head. */
    uint64_t full_bytes = 0;
    /** Cohort total actually shipped under delta OTA. */
    uint64_t delta_bytes = 0;
    /** The patch applied cleanly against the base (verified). */
    bool used_delta = false;
    /** Lookup hit rate of the cohort's pre-push (stale) model. */
    double hit_rate = 0.0;
};

/** Fleet-wide outcome of pushing the head to every cohort. */
struct EpochPushReport {
    VersionId head = 0;
    uint64_t head_bytes = 0;
    uint64_t devices = 0;
    /** Fleet totals: full-fetch baseline vs what delta OTA shipped. */
    uint64_t full_bytes = 0;
    uint64_t delta_bytes = 0;
    /** Cohorts that fell back to the full package. */
    size_t fallbacks = 0;
    /** max - min stale-model hit rate across cohorts. */
    double staleness_skew = 0.0;
    std::vector<CohortReport> cohorts;
};

/**
 * Push the registry head of cfg.game to the whole fleet. The
 * registry must hold at least one version; every patch is verified
 * end-to-end (applyPatch reconstruction == head bytes) with the
 * full-package fallback engaging on any rejection, exactly as a
 * device would. Errors when the game has no published head.
 */
util::Result<EpochPushReport> pushEpoch(ModelRegistry &reg,
                                        const FleetSimConfig &cfg);

/**
 * Produce @p count per-device upload payloads for the aggregation
 * half of an epoch: each simulated device plays a short seeded
 * session, replays it locally, projects the profile onto the
 * selections of @p agreed's table (which must be set), and packs its
 * table as an SNPM payload. Defined in federated.cc: a device here
 * records and packs its upload with the same steps as the devices of
 * buildFederated. Devices are independent, so they record in
 * parallel.
 */
std::vector<util::ByteBuffer>
recordUploadPayloads(const std::string &game_name,
                     const core::SnipModel &agreed, size_t count,
                     uint64_t seed, double session_s,
                     unsigned threads = 0);

/**
 * Wire a ContinuousLearner's deploy seam into the registry: every
 * epoch package the learner ships is also published (upstream of any
 * ota_tamper transport loss), growing cfg.game's lineage one version
 * per epoch. A package the registry refuses is warned about and the
 * learner keeps running — publishing is observability, not a gate.
 */
void bindLearner(core::LearningConfig &cfg, ModelRegistry &reg,
                 const std::string &game);

}  // namespace fleet
}  // namespace snip

#endif  // SNIP_FLEET_FLEET_SIM_H
