#include "fleet/fleet_sim.h"

#include <algorithm>
#include <cmath>

#include "core/model_codec.h"
#include "core/simulation.h"
#include "fleet/delta.h"
#include "games/registry.h"
#include "obs/metrics.h"
#include "trace/recorder.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace snip {
namespace fleet {

std::vector<CohortSpec>
defaultCohorts()
{
    // Stable ring updates every epoch (holds the head's parent),
    // slower rings lag deeper, and a fresh-install sliver holds
    // nothing and must full-fetch.
    return {
        {"stable", 0.50, 1},
        {"slow", 0.30, 2},
        {"lagging", 0.15, 3},
        {"fresh", 0.05, 1000000},
    };
}

namespace {

/** Hit rate of one stale package over an eval session (0 = no
 *  deployable model: every lookup misses by definition). */
double
staleHitRate(const FleetSimConfig &cfg,
             const ModelVersion *base, uint64_t salt)
{
    if (!base)
        return 0.0;
    auto pkg = std::make_shared<util::ByteBuffer>();
    pkg->putBytes(base->package->data().data(),
                  base->package->size());
    util::Result<core::SnipModel> deployed =
        core::deployModel(std::move(pkg));
    if (!deployed.ok()) {
        util::warn("fleet: stale version fails deploy: %s",
                   deployed.status().message().c_str());
        return 0.0;
    }
    auto game = games::makeGame(cfg.game);
    obs::Registry session_obs;
    core::SimulationConfig scfg;
    scfg.duration_s = cfg.eval_seconds;
    scfg.seed = util::mixCombine(cfg.seed, 0x57a1eULL + salt);
    scfg.obs = &session_obs;
    core::SnipScheme scheme(deployed.value());
    core::runSession(*game, scheme, scfg);
    uint64_t hits = session_obs.counterValue("lookup.hits");
    uint64_t misses = session_obs.counterValue("lookup.misses");
    return hits + misses ? static_cast<double>(hits) /
                               static_cast<double>(hits + misses)
                         : 0.0;
}

}  // namespace

util::Result<EpochPushReport>
pushEpoch(ModelRegistry &reg, const FleetSimConfig &cfg)
{
    const ModelVersion *head = reg.head(cfg.game);
    if (!head)
        return util::Status::Errorf(
            "fleet: no published head for '%s'", cfg.game.c_str());

    std::vector<CohortSpec> cohorts =
        cfg.cohorts.empty() ? defaultCohorts() : cfg.cohorts;
    double share_sum = 0.0;
    for (const CohortSpec &c : cohorts)
        share_sum += c.share;
    if (share_sum <= 0.0)
        return util::Status::Error("fleet: cohort shares sum to 0");

    EpochPushReport report;
    report.head = head->id;
    report.head_bytes = head->bytes;
    report.devices = cfg.devices;

    // Serial phase: per-cohort device counts, patch builds (the
    // registry's delta cache is single-writer) and end-to-end patch
    // verification through the device receive path.
    uint64_t assigned = 0;
    for (size_t i = 0; i < cohorts.size(); ++i) {
        const CohortSpec &spec = cohorts[i];
        CohortReport cr;
        cr.name = spec.name;
        cr.versions_behind = spec.versions_behind;
        cr.devices =
            i + 1 == cohorts.size()
                ? cfg.devices - assigned
                : static_cast<uint64_t>(
                      cfg.devices * (spec.share / share_sum));
        assigned += cr.devices;

        const ModelVersion *base =
            reg.behindHead(cfg.game, spec.versions_behind);
        cr.base_version = base ? base->id : 0;
        cr.full_bytes = cr.devices * head->bytes;

        uint64_t per_device = head->bytes;  // full-fetch default
        if (base && base->id == head->id) {
            // Already at head: nothing to ship.
            per_device = 0;
            cr.used_delta = true;
        } else if (base) {
            auto patch = reg.delta(cfg.game, base->id, head->id);
            // A patch only ships when it actually undercuts the
            // full package (deep staleness can diverge enough that
            // the delta degenerates past the package size).
            if (patch.ok() &&
                patch.value()->size() < head->bytes) {
                cr.patch_bytes = patch.value()->size();
                // Receive exactly as a device would: apply, fall
                // back to the full package on any rejection.
                bool used = false;
                util::ByteBuffer got = fetchWithDelta(
                    std::span<const uint8_t>(base->package->data()),
                    *patch.value(), *head->package, &used);
                if (got.data() != head->package->data())
                    return util::Status::Error(
                        "fleet: OTA receive path produced bytes "
                        "differing from the published head");
                cr.used_delta = used;
                if (used)
                    per_device = cr.patch_bytes;
                else
                    ++report.fallbacks;
            }
        }
        cr.delta_bytes = cr.devices * per_device;
        report.full_bytes += cr.full_bytes;
        report.delta_bytes += cr.delta_bytes;
        report.cohorts.push_back(std::move(cr));
    }

    // Parallel phase: each cohort's stale-model eval session is
    // independent (own game instance, own metrics registry).
    util::parallelFor(
        report.cohorts.size(),
        [&](size_t i) {
            report.cohorts[i].hit_rate = staleHitRate(
                cfg,
                reg.behindHead(cfg.game,
                               report.cohorts[i].versions_behind),
                i);
        },
        cfg.threads);

    double lo = 1.0, hi = 0.0;
    for (const CohortReport &cr : report.cohorts) {
        lo = std::min(lo, cr.hit_rate);
        hi = std::max(hi, cr.hit_rate);
    }
    report.staleness_skew = std::max(0.0, hi - lo);

    if (cfg.obs) {
        obs::Registry &r = *cfg.obs;
        r.counter("fleet.push.epochs").add(1);
        r.counter("fleet.push.devices").add(report.devices);
        r.counter("fleet.ota.full_bytes").add(report.full_bytes);
        r.counter("fleet.ota.delta_bytes").add(report.delta_bytes);
        r.counter("fleet.ota.fallbacks").add(report.fallbacks);
        r.gauge("fleet.push.staleness_skew")
            .set(report.staleness_skew);
    }
    return report;
}

std::vector<util::ByteBuffer>
recordUploadPayloads(const std::string &game_name,
                     const core::SnipModel &agreed, size_t count,
                     uint64_t seed, double session_s,
                     unsigned threads)
{
    std::vector<util::ByteBuffer> payloads(count);
    util::parallelFor(
        count,
        [&](size_t u) {
            auto game = games::makeGame(game_name);
            core::BaselineScheme baseline;
            core::SimulationConfig scfg;
            scfg.duration_s = session_s;
            scfg.record_events = true;
            scfg.seed = util::mixCombine(seed, 0xd01ceULL + u);
            core::SessionResult res =
                core::runSession(*game, baseline, scfg);
            auto replica = games::makeGame(game_name);
            trace::Profile profile =
                trace::Replayer::replay(res.trace, *replica);

            core::MemoTable local(*agreed.table);
            for (const auto &rec : profile.records)
                local.insert(rec);
            core::SnipModel device;
            device.game = game_name;
            device.table = local.freeze();
            core::packModel(device, payloads[u]);
        },
        threads);
    return payloads;
}

void
bindLearner(core::LearningConfig &cfg, ModelRegistry &reg,
            const std::string &game)
{
    cfg.on_publish = [&reg, game](const util::ByteBuffer &pkg) {
        util::Result<VersionId> pub = reg.publish(
            game, std::make_shared<const util::ByteBuffer>(pkg));
        if (!pub.ok())
            util::warn("fleet: epoch publish refused: %s",
                       pub.status().message().c_str());
    };
}

}  // namespace fleet
}  // namespace snip
