#include "fleet/federated.h"

#include <algorithm>
#include <array>
#include <map>
#include <utility>

#include "core/model_codec.h"
#include "core/simulation.h"
#include "fleet/aggregate.h"
#include "fleet/fleet_sim.h"
#include "games/registry.h"
#include "trace/recorder.h"
#include "trace/trace_log.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace snip {
namespace fleet {

namespace {

/** One device's recorded play: event trace + replayed profile. */
struct DeviceRecord {
    trace::EventTrace trace;
    trace::Profile profile;
};

/**
 * A device plays one baseline session of @p session_s under
 * @p seed, recording its events, and replays them on a fresh game.
 */
DeviceRecord
recordDevice(const std::string &game_name, double session_s,
             uint64_t seed)
{
    auto game = games::makeGame(game_name);
    core::BaselineScheme baseline;
    core::SimulationConfig scfg;
    scfg.duration_s = session_s;
    scfg.record_events = true;
    scfg.seed = seed;
    DeviceRecord rec;
    rec.trace = core::runSession(*game, baseline, scfg).trace;
    auto replica = games::makeGame(game_name);
    rec.profile = trace::Replayer::replay(rec.trace, *replica);
    return rec;
}

/**
 * A device's upload: @p profile projected onto @p agreed's
 * selections, frozen and packed as an SNPM payload into @p out.
 */
void
packUpload(const std::string &game_name, const core::FrozenTable &agreed,
           const trace::Profile &profile, util::ByteBuffer &out)
{
    core::MemoTable local(agreed);
    for (const auto &rec : profile.records)
        local.insert(rec);
    core::SnipModel device;
    device.game = game_name;
    device.table = local.freeze();
    core::packModel(device, out);
}

std::vector<DeviceRecord>
recordUsers(const std::string &game_name, const FederatedConfig &cfg)
{
    // Every user's session+replay is independent and fully seeded,
    // so the fleet records in parallel with results identical to
    // the serial loop.
    std::vector<DeviceRecord> users(cfg.num_users);
    util::parallelFor(static_cast<size_t>(cfg.num_users), [&](size_t u) {
        users[u] = recordDevice(
            game_name, cfg.session_s,
            util::mixCombine(cfg.seed,
                             0x05e7000ULL + static_cast<uint64_t>(u)));
    });
    return users;
}

uint64_t
traceBytes(const trace::EventTrace &t)
{
    util::ByteBuffer buf;
    trace::encodeEventTrace(t, buf);
    uint64_t bytes = buf.size();
    // Replaying camera-driven games offline needs the recorded
    // camera feed as well (the paper screen-records it); count a
    // compressed frame per CameraFrame event.
    constexpr uint64_t kCompressedFrameBytes = 100 * 1024;
    for (const auto &ev : t.events)
        if (ev.type == events::EventType::CameraFrame)
            bytes += kCompressedFrameBytes;
    return bytes;
}

}  // namespace

size_t
federatedVotesNeeded(int num_users)
{
    return num_users <= 0 ? 0 : static_cast<size_t>(num_users + 1) / 2;
}

FederatedResult
buildCentralized(const std::string &game_name,
                 const FederatedConfig &cfg)
{
    auto game = games::makeGame(game_name);
    auto users = recordUsers(game_name, cfg);

    FederatedResult out;
    trace::Profile merged;
    merged.game = game_name;
    for (const auto &u : users) {
        merged.append(u.profile);
        out.cost.uploaded_bytes += traceBytes(u.trace);
    }
    out.cost.selection_records = merged.records.size();

    core::SnipConfig scfg = cfg.snip;
    scfg.overrides.force_keep = game->params().recommended_overrides;
    out.model = core::buildSnipModel(merged, *game, scfg);
    for (const auto &t : out.model.types)
        out.deployed_types.emplace_back(
            t.type, t.selection.selected.size());
    return out;
}

FederatedResult
buildFederated(const std::string &game_name,
               const FederatedConfig &cfg)
{
    auto game = games::makeGame(game_name);
    auto users = recordUsers(game_name, cfg);

    // Per-user local selection (runs on-device / per-silo; the
    // backend's serial compute is a single user's job), each user
    // voting for the fields it selected.
    std::map<events::EventType, std::map<events::FieldId, size_t>>
        votes;
    uint64_t max_user_records = 0;
    for (int u = 0; u < cfg.num_users; ++u) {
        core::SnipConfig scfg = cfg.snip;
        scfg.seed = util::mixCombine(cfg.snip.seed,
                                     static_cast<uint64_t>(u));
        scfg.overrides.force_keep =
            game->params().recommended_overrides;
        core::SnipModel local =
            core::buildSnipModel(users[u].profile, *game, scfg);
        for (const auto &t : local.types)
            for (events::FieldId fid : t.selection.selected)
                ++votes[t.type][fid];
        max_user_records = std::max<uint64_t>(
            max_user_records, users[u].profile.records.size());
    }

    FederatedResult out;
    out.cost.selection_records = max_user_records;
    out.model.game = game_name;

    // Evidence weight of each deployed type: profiled records of
    // that type across the fleet (drives the confidence gate).
    std::array<uint64_t, events::kNumEventTypes> type_records{};
    for (const auto &u : users)
        for (const auto &rec : u.profile.records)
            ++type_records[static_cast<int>(rec.type)];

    // Majority vote per type over the selected field sets.
    const size_t votes_needed = federatedVotesNeeded(cfg.num_users);
    core::MemoTable agreed(game->schema());
    for (const auto &tv : votes) {
        std::vector<events::FieldId> selected;
        for (const auto &fv : tv.second)
            if (fv.second >= votes_needed)
                selected.push_back(fv.first);
        if (selected.empty())
            continue;
        agreed.setSelected(tv.first, selected);
        core::TypeModel tm;
        tm.type = tv.first;
        tm.records = type_records[static_cast<int>(tv.first)];
        tm.selection.selected = selected;
        out.model.types.push_back(std::move(tm));
        out.deployed_types.emplace_back(tv.first, selected.size());
    }

    // Each device projects its local profile onto the agreed fields
    // and uploads its table entries as a packed OTA-style payload;
    // the server unions the uploads into the fleet model in user
    // order. A payload that fails integrity checks is dropped, not
    // fatal — that user just contributes nothing this round.
    std::shared_ptr<const core::FrozenTable> selections = agreed.freeze();
    std::vector<util::ByteBuffer> payloads(users.size());
    for (size_t u = 0; u < users.size(); ++u) {
        packUpload(game_name, *selections, users[u].profile, payloads[u]);
        out.cost.uploaded_bytes += payloads[u].size();
    }
    aggregateUploads(agreed, payloads, {});
    out.model.table = agreed.freeze();
    return out;
}

FederatedEval
evaluateModel(const std::string &game_name, const core::SnipModel &model,
              uint64_t seed, double session_s)
{
    auto game = games::makeGame(game_name);
    core::SimulationConfig cfg;
    cfg.duration_s = session_s;
    cfg.seed = seed;

    core::BaselineScheme baseline;
    double e_base = core::runSession(*game, baseline, cfg).report.total();

    core::SnipScheme scheme(model);
    core::SessionResult res = core::runSession(*game, scheme, cfg);

    FederatedEval ev;
    ev.coverage = res.stats.coverageInstr();
    ev.error_field_rate = res.stats.errorFieldRate();
    ev.energy_savings = 1.0 - res.report.total() / e_base;
    return ev;
}

// Declared in fleet_sim.h: the fleet benches' upload half, built from
// the same device steps as buildFederated's uploads.
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
            DeviceRecord rec = recordDevice(
                game_name, session_s,
                util::mixCombine(seed, 0xd01ceULL + u));
            packUpload(game_name, *agreed.table, rec.profile,
                       payloads[u]);
        },
        threads);
    return payloads;
}

}  // namespace fleet
}  // namespace snip
