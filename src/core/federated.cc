#include "core/federated.h"

#include <algorithm>
#include <array>
#include <map>

#include "core/model_codec.h"
#include "core/simulation.h"
#include "games/registry.h"
#include "trace/recorder.h"
#include "trace/trace_log.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace snip {
namespace core {

namespace {

/** One user's recorded play: event trace + replayed profile. */
struct UserData {
    trace::EventTrace trace;
    trace::Profile profile;
};

std::vector<UserData>
recordUsers(const std::string &game_name, const FederatedConfig &cfg)
{
    // Every user's session+replay is independent and fully seeded,
    // so the fleet records in parallel (one game + replica clone per
    // user) with results identical to the serial loop.
    std::vector<UserData> users(cfg.num_users);
    util::parallelFor(static_cast<size_t>(cfg.num_users), [&](size_t u) {
        auto game = games::makeGame(game_name);
        BaselineScheme baseline;
        SimulationConfig scfg;
        scfg.duration_s = cfg.session_s;
        scfg.record_events = true;
        scfg.seed = util::mixCombine(cfg.seed,
                                     0x05e7000ULL + static_cast<uint64_t>(u));
        SessionResult res = runSession(*game, baseline, scfg);
        auto replica = games::makeGame(game_name);
        // The session's trace is dead after this scope: adopt it
        // instead of deep-copying megabytes of events per user, then
        // replay from the adopted copy.
        users[u].trace = std::move(res.trace);
        users[u].profile =
            trace::Replayer::replay(users[u].trace, *replica);
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

    SnipConfig scfg = cfg.snip;
    scfg.overrides.force_keep = game->params().recommended_overrides;
    out.model = buildSnipModel(merged, *game, scfg);
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
    // backend's serial compute is a single user's job).
    std::vector<SnipModel> locals;
    uint64_t max_user_records = 0;
    for (int u = 0; u < cfg.num_users; ++u) {
        SnipConfig scfg = cfg.snip;
        scfg.seed = util::mixCombine(cfg.snip.seed,
                                     static_cast<uint64_t>(u));
        scfg.overrides.force_keep =
            game->params().recommended_overrides;
        locals.push_back(
            buildSnipModel(users[u].profile, *game, scfg));
        max_user_records = std::max<uint64_t>(
            max_user_records, users[u].profile.records.size());
    }

    // Majority vote per type over the selected field sets.
    FederatedResult out;
    out.cost.selection_records = max_user_records;
    size_t votes_needed = federatedVotesNeeded(cfg.num_users);

    out.model.game = game_name;
    MemoTable agreed(game->schema());
    std::map<events::EventType, std::map<events::FieldId, size_t>>
        votes;
    for (const auto &local : locals)
        for (const auto &t : local.types)
            for (events::FieldId fid : t.selection.selected)
                ++votes[t.type][fid];

    // Evidence weight of each deployed type: profiled records of
    // that type across the fleet (drives the confidence gate).
    std::array<uint64_t, events::kNumEventTypes> type_records{};
    for (const auto &u : users)
        for (const auto &rec : u.profile.records)
            ++type_records[static_cast<int>(rec.type)];

    for (const auto &tv : votes) {
        std::vector<events::FieldId> selected;
        for (const auto &fv : tv.second)
            if (fv.second >= votes_needed)
                selected.push_back(fv.first);
        if (selected.empty())
            continue;
        agreed.setSelected(tv.first, selected);
        TypeModel tm;
        tm.type = tv.first;
        tm.records = type_records[static_cast<int>(tv.first)];
        tm.selection.selected = selected;
        out.model.types.push_back(std::move(tm));
        out.deployed_types.emplace_back(tv.first, selected.size());
    }

    // Each device projects its local profile onto the agreed fields
    // and uploads its table entries as a packed OTA-style payload;
    // the server decodes each payload and unions it into the fleet
    // model. A payload that fails integrity checks is dropped, not
    // fatal — that user just contributes nothing this round.
    for (int u = 0; u < cfg.num_users; ++u) {
        MemoTable local(game->schema());
        for (const auto &t : out.model.types)
            local.setSelected(t.type, t.selection.selected);
        for (const auto &rec : users[u].profile.records)
            local.insert(rec);
        SnipModel device;
        device.game = game_name;
        device.table = local.freeze();

        util::ByteBuffer payload;
        packModel(device, payload);
        out.cost.uploaded_bytes += payload.size();

        util::Result<SnipModel> decoded = unpackModel(payload);
        if (!decoded.ok() || !decoded.value().table) {
            util::warn("federated: dropping user %d upload: %s", u,
                       decoded.status().message().c_str());
            continue;
        }
        agreed.mergeFrom(*decoded.value().table);
    }
    // Freeze the aggregate once all uploads are unioned.
    out.model.table = agreed.freeze();
    return out;
}

FederatedEval
evaluateModel(const std::string &game_name, const SnipModel &model,
              uint64_t seed, double session_s)
{
    auto game = games::makeGame(game_name);
    SimulationConfig cfg;
    cfg.duration_s = session_s;
    cfg.seed = seed;

    BaselineScheme baseline;
    double e_base = runSession(*game, baseline, cfg).report.total();

    SnipScheme scheme(model);
    SessionResult res = runSession(*game, scheme, cfg);

    FederatedEval ev;
    ev.coverage = res.stats.coverageInstr();
    ev.error_field_rate = res.stats.errorFieldRate();
    ev.energy_savings = 1.0 - res.report.total() / e_base;
    return ev;
}

}  // namespace core
}  // namespace snip
