#include "core/continuous_learning.h"

#include "core/model_codec.h"
#include "obs/span.h"
#include "trace/recorder.h"
#include "util/logging.h"
#include "util/rng.h"

namespace snip {
namespace core {

ContinuousLearner::ContinuousLearner(games::Game &game,
                                     games::Game &replica,
                                     LearningConfig cfg)
    : game_(game), replica_(replica), cfg_(std::move(cfg))
{
    if (game_.name() != replica_.name())
        util::fatal("ContinuousLearner: replica runs %s, game runs %s",
                    replica_.name().c_str(), game_.name().c_str());
}

double
testedModelError(const SnipModel &model)
{
    double weighted = 0.0;
    double total = 0.0;
    for (const auto &t : model.types) {
        double w = static_cast<double>(t.records);
        weighted += t.selection.selected_error * w;
        total += w;
    }
    return total > 0 ? weighted / total : 1.0;
}

std::vector<EpochResult>
ContinuousLearner::run()
{
    SimulationConfig scfg = cfg_.sim;
    scfg.duration_s = cfg_.session_s;
    scfg.record_events = true;
    scfg.obs = cfg_.obs;
    obs::Span learn_span(cfg_.obs, "learn");

    // Seed profile: one baseline session, replayed offline, then
    // truncated to the artificially insufficient size.
    scfg.seed = util::mixCombine(cfg_.sim.seed, 0xbadc0ffeULL);
    BaselineScheme baseline;
    SessionResult seed_session = runSession(game_, baseline, scfg);
    trace::Profile profile =
        trace::Replayer::replay(seed_session.trace, replica_)
            .truncated(cfg_.initial_profile_records);

    std::vector<EpochResult> results;
    uint64_t rejected_packages = 0;
    for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
        obs::Span epoch_span(cfg_.obs, "epoch");
        SnipConfig sc = cfg_.snip;
        // Per-epoch seed remixing deliberately decorrelates PFI
        // noise across epochs.
        sc.seed = util::mixCombine(cfg_.snip.seed,
                                   static_cast<uint64_t>(epoch));
        sc.obs = cfg_.obs;

        // Deploy through the OTA transport: the table the phone runs
        // is the one that survived serialize->deserialize, never the
        // in-memory pointer. deployModel attaches a zero-copy
        // FrozenTable view over the package bytes (the model shares
        // ownership of the buffer, so it outlives this scope). A
        // package that fails integrity checks is rejected and the
        // device runs at baseline until the next epoch's push.
        auto pkg = std::make_shared<util::ByteBuffer>();
        packModel(buildSnipModel(profile, game_, sc), *pkg);
        if (cfg_.on_publish)
            cfg_.on_publish(*pkg);
        if (cfg_.ota_tamper)
            cfg_.ota_tamper(*pkg);
        uint64_t payload_bytes = pkg->size();
        SnipModel model;
        util::Result<SnipModel> shipped = deployModel(pkg);
        if (shipped.ok()) {
            model = std::move(shipped.value());
        } else {
            util::warn("continuous learning: rejected OTA package at "
                       "epoch %d: %s", epoch,
                       shipped.status().message().c_str());
            // The rejected package never reached the device: the
            // epoch deploys nothing, so it must not report the dead
            // package's size.
            payload_bytes = 0;
            ++rejected_packages;
        }

        bool deployed = model.deployed();
        bool gate_withheld = false;
        if (cfg_.confidence_gate && deployed &&
            (profile.records.size() < cfg_.gate_min_records ||
             testedModelError(model) > cfg_.gate_threshold)) {
            deployed = false;
            gate_withheld = true;
        }

        scfg.seed = util::mixCombine(cfg_.sim.seed,
                                     0x1000ULL + epoch);
        EpochResult er;
        er.epoch = epoch;
        er.profile_records = profile.records.size();
        er.table_bytes = model.tableBytes();
        er.payload_bytes = payload_bytes;
        er.deployed = deployed;
        er.gate_withheld = gate_withheld;
        er.rejected_packages = rejected_packages;

        SessionResult res = [&] {
            if (deployed) {
                SnipScheme scheme(model);
                return runSession(game_, scheme, scfg);
            }
            BaselineScheme b;
            return runSession(game_, b, scfg);
        }();
        er.error_field_rate = res.stats.errorFieldRate();
        er.coverage = res.stats.coverageInstr();
        er.energy_j = res.report.total();
        results.push_back(er);

        if (cfg_.obs) {
            obs::Registry &r = *cfg_.obs;
            r.counter("learn.epochs").add(1);
            if (deployed)
                r.counter("learn.deployed_epochs").add(1);
            if (gate_withheld)
                r.counter("learn.gate_withheld").add(1);
            r.histogram("learn.payload_bytes")
                .add(static_cast<double>(payload_bytes));
            r.gauge("learn.rejected_packages")
                .set(static_cast<double>(rejected_packages));
            r.gauge("learn.table_bytes")
                .set(static_cast<double>(er.table_bytes));
            r.gauge("learn.profile_records")
                .set(static_cast<double>(er.profile_records));
            r.gauge("learn.error_field_rate")
                .set(er.error_field_rate);
        }

        // "Send events to cloud": replay this session and grow the
        // profile, dropping the oldest records beyond the cap.
        trace::Profile grown =
            trace::Replayer::replay(res.trace, replica_);
        profile.append(grown);
        if (profile.records.size() > cfg_.max_profile_records) {
            size_t excess =
                profile.records.size() - cfg_.max_profile_records;
            profile.records.erase(profile.records.begin(),
                                  profile.records.begin() +
                                      static_cast<long>(excess));
        }
    }
    return results;
}

}  // namespace core
}  // namespace snip
