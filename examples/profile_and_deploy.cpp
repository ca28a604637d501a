/**
 * @file
 * The full Fig. 10 deployment flow with on-disk artifacts:
 *
 *   phone:  record event stream  ->  events.bin  (upload)
 *   cloud:  load events.bin, replay on emulator -> profile.snct
 *   cloud:  PFI selection -> necessary inputs + lookup table
 *   phone:  deploy table (OTA), play with SNIP
 *
 * Artifacts are written to an output directory (default /tmp) so you
 * can inspect the actual bytes that would cross the network.
 *
 * Build & run:  ./build/examples/profile_and_deploy [game] [out_dir]
 */

#include <cstdio>

#include "core/model_codec.h"
#include "core/simulation.h"
#include "core/snip.h"
#include "games/registry.h"
#include "trace/columnar_log.h"
#include "trace/recorder.h"
#include "trace/trace_log.h"
#include "util/bytes.h"
#include "util/logging.h"
#include "util/units.h"

using namespace snip;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "candy_crush";
    std::string dir = argc > 2 ? argv[2] : "/tmp";
    std::string events_path = dir + "/snip_" + name + "_events.bin";
    std::string profile_path = dir + "/snip_" + name + "_profile.snct";
    std::string model_path = dir + "/snip_" + name + "_model.snpm";

    // --- Phone side: play & record -------------------------------
    auto game = games::makeGame(name);
    core::BaselineScheme baseline;
    core::SimulationConfig cfg;
    cfg.duration_s = 180.0;
    cfg.record_events = true;
    core::SessionResult res = core::runSession(*game, baseline, cfg);

    util::ByteBuffer ev_buf;
    trace::encodeEventTrace(res.trace, ev_buf);
    util::Status st = trace::saveBuffer(ev_buf, events_path);
    if (!st.ok())
        util::fatal("%s", st.message().c_str());
    std::printf("[phone] recorded %zu events -> %s (%s uploaded)\n",
                res.trace.events.size(), events_path.c_str(),
                util::formatSize(static_cast<double>(ev_buf.size()))
                    .c_str());

    // --- Cloud side: replay on the emulator ----------------------
    util::ByteBuffer ev_in;
    st = trace::loadBuffer(events_path, &ev_in);
    if (!st.ok())
        util::fatal("%s", st.message().c_str());
    trace::EventTrace uploaded;
    st = trace::decodeEventTrace(ev_in, &uploaded);
    if (!st.ok())
        util::fatal("corrupt upload: %s", st.message().c_str());
    auto emulator = games::makeGame(uploaded.game);
    trace::Profile profile =
        trace::Replayer::replay(uploaded, *emulator);

    // The replayed profile is kept as SNCT training columns: the file
    // the out-of-core Shrink maps.
    std::vector<uint8_t> prof_bytes;
    st = trace::ColumnarLog::encodeTraining(profile, &prof_bytes);
    if (st.ok())
        st = trace::ColumnarLog::save(prof_bytes, profile_path);
    if (!st.ok())
        util::fatal("%s", st.message().c_str());
    std::printf("[cloud] replayed -> %zu full I/O records (%s of "
                "training columns -> %s; a real device would need %s "
                "for the naive union-of-locations table)\n",
                profile.records.size(),
                util::formatSize(static_cast<double>(prof_bytes.size()))
                    .c_str(),
                profile_path.c_str(),
                util::formatSize(static_cast<double>(
                                     profile.records.size() *
                                     emulator->schema()
                                         .totalInputBytes()))
                    .c_str());

    // --- Cloud side: PFI selection -------------------------------
    core::SnipConfig scfg;
    scfg.overrides.force_keep = game->params().recommended_overrides;
    core::SnipModel model =
        core::buildSnipModel(profile, *emulator, scfg);
    std::printf("[cloud] PFI selected necessary inputs per type:\n");
    for (const auto &t : model.types) {
        std::printf("  %-12s %3zu fields, %5llu B (wrong-hit %.2f%%, "
                    "holdout hit rate %.0f%%)\n",
                    events::eventTypeName(t.type),
                    t.selection.selected.size(),
                    static_cast<unsigned long long>(
                        t.selection.selected_bytes),
                    100.0 * t.selection.selected_error,
                    100.0 * t.selection.selected_hit_rate);
        for (events::FieldId fid : t.selection.selected)
            std::printf("      - %s\n",
                        emulator->schema().def(fid).name.c_str());
    }
    st = core::saveModel(model, model_path);
    if (!st.ok())
        util::fatal("%s", st.message().c_str());
    std::printf("[cloud] OTA payload: lookup table with %zu entries "
                "(%s wire) -> %s\n",
                model.table->entryCount(),
                util::formatSize(static_cast<double>(
                                     core::packedModelBytes(model)))
                    .c_str(),
                model_path.c_str());

    // --- Phone side: play with the deployed table ----------------
    // The phone runs the model that crossed the wire, not the
    // in-memory pointer; a corrupt package would be rejected here
    // and the phone would simply stay on baseline.
    util::Result<core::SnipModel> shipped =
        core::loadModel(model_path);
    if (!shipped.ok())
        util::fatal("rejected OTA package: %s",
                    shipped.status().message().c_str());
    core::SimulationConfig ecfg;
    ecfg.duration_s = 60.0;
    ecfg.seed = 7777;
    core::BaselineScheme base2;
    double e_base =
        core::runSession(*game, base2, ecfg).report.total();
    core::SnipScheme snip(shipped.value());
    core::SessionResult r = core::runSession(*game, snip, ecfg);
    std::printf("[phone] SNIP session: %.1f%% energy saved "
                "(%.1f%% of execution snipped, %.3f%% output fields "
                "wrong, %s compared per event)\n",
                100.0 * (1.0 - r.report.total() / e_base),
                100.0 * r.stats.coverageInstr(),
                100.0 * r.stats.errorFieldRate(),
                util::formatSize(static_cast<double>(
                                     r.stats.lookup_bytes) /
                                 static_cast<double>(r.stats.events))
                    .c_str());
    return 0;
}
