/**
 * @file
 * snip — command-line driver for the SNIP pipeline.
 *
 *   snip games
 *       List the available game workloads.
 *   snip characterize --game G [--seconds S] [--seed N]
 *       Baseline session: energy breakdown, battery projection,
 *       useless-event and repetition statistics.
 *   snip record --game G --out events.bin [--seconds S] [--seed N]
 *       Record a play session's event stream (the phone-side step).
 *   snip select --in events.bin [--out profile.snct] [--verbose]
 *       Replay the stream offline, run PFI selection, report the
 *       necessary inputs per event type (the cloud-side step).
 *       --out saves the replayed profile as SNCT training sections
 *       (the feature/label/weight columns ml::ChunkedDataset maps
 *       for the out-of-core Shrink).
 *   snip eval --game G [--seconds S] [--profile-seconds S]
 *             [--scheme snip|baseline|maxcpu|maxip|nooverheads]
 *             [--audit N]
 *       Profile + deploy + evaluate one scheme; prints savings,
 *       coverage, error rate, and QoE.
 *   snip learn --game G [--epochs E]
 *       Continuous-learning loop (Fig. 12 style) with per-epoch
 *       error rates.
 *   snip pack --game G --out model.bin [--profile-seconds S]
 *       Profile + PFI-select + serialize the deployable model into
 *       the OTA package format (steps 4-5 of the paper's flow).
 *   snip inspect --in model.bin [--verbose]
 *       Print a package's header, integrity state, selections, and
 *       table statistics.
 *   snip verify --in model.bin
 *       Integrity-check a package; exit 0 when deployable, 1 when
 *       rejected (never aborts on corrupt input).
 *   snip stats --game G [--seconds S] [--profile-seconds S]
 *             [--audit N] [--json F]
 *       Profile + deploy + evaluate with the snip::obs metrics
 *       registry enabled: lookup hit/miss/byte counters, decide
 *       outcomes, erroneous-shortcircuit classes, per-Shrink-phase
 *       wall times, and table gauges, printed as tables (and
 *       optionally exported as JSON).
 *   snip fleet publish --registry D --in model.bin [--game G]
 *       Add a package to an on-disk versioned model registry
 *       (content-digest version ids, parent-per-epoch lineage).
 *   snip fleet diff --from old.bin --to new.bin --out patch.snpd
 *       Byte-level SNPD delta patch between two packages (the
 *       delta-OTA wire format).
 *   snip fleet apply --base old.bin --patch patch.snpd --out new.bin
 *       Apply a patch the way a device does: corruption-safe, with
 *       an optional --full fallback package.
 *
 * eval, pack and stats build the same model for the same --game,
 * --profile-seconds (default 300) and --seed (default 77): the
 * profile session and Shrink both run under --seed, so `snip pack`
 * ships the model `snip eval` scored. Every command is deterministic
 * under --seed (obs span timers measure host wall time and are the
 * one exception).
 */

#include <cstdio>
#include <iostream>
#include <cstdlib>
#include <map>
#include <string>

#include "core/continuous_learning.h"
#include "core/model_codec.h"
#include "core/qoe.h"
#include "core/simulation.h"
#include "core/snip.h"
#include "fleet/delta.h"
#include "fleet/registry.h"
#include "games/registry.h"
#include "obs/sink.h"
#include "trace/columnar_log.h"
#include "trace/field_stats.h"
#include "trace/recorder.h"
#include "trace/trace_log.h"
#include "util/bytes.h"
#include "util/logging.h"
#include "util/table_printer.h"
#include "util/units.h"

namespace {

using namespace snip;

/** Parsed `--key value` options plus positional command. */
struct Args {
    std::string command;
    std::map<std::string, std::string> opts;

    std::string
    get(const std::string &key, const std::string &fallback = "") const
    {
        auto it = opts.find(key);
        return it == opts.end() ? fallback : it->second;
    }

    double
    getD(const std::string &key, double fallback) const
    {
        auto it = opts.find(key);
        return it == opts.end() ? fallback : std::atof(it->second.c_str());
    }

    uint64_t
    getU(const std::string &key, uint64_t fallback) const
    {
        auto it = opts.find(key);
        return it == opts.end()
                   ? fallback
                   : std::strtoull(it->second.c_str(), nullptr, 0);
    }
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    if (argc < 2)
        return args;
    args.command = argv[1];
    int first_opt = 2;
    // `fleet` carries a positional subcommand: fold it into the
    // command so dispatch stays a flat string match.
    if (args.command == "fleet" && argc >= 3 &&
        argv[2][0] != '-') {
        args.command += ' ';
        args.command += argv[2];
        first_opt = 3;
    }
    for (int i = first_opt; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--", 0) == 0) {
            std::string key = a.substr(2);
            if (i + 1 < argc && argv[i + 1][0] != '-')
                args.opts[key] = argv[++i];
            else
                args.opts[key] = "1";
        } else {
            util::fatal("unexpected argument '%s'", a.c_str());
        }
    }
    return args;
}

/** Defaults of the profile behind a deployed model. */
constexpr double kProfileSeconds = 300.0;
constexpr uint64_t kSeed = 77;

/**
 * The model `eval`, `pack` and `stats` deploy, so one set of
 * arguments yields one model: a baseline profile of
 * --profile-seconds under --seed, replayed offline and Shrunk with
 * the same seed. @p obs, when set, receives the Shrink spans; the
 * profile session is not instrumented.
 */
core::SnipModel
profiledModel(const Args &args, games::Game &game,
              obs::Registry *obs = nullptr)
{
    core::BaselineScheme baseline;
    core::SimulationConfig pcfg;
    pcfg.duration_s = args.getD("profile-seconds", kProfileSeconds);
    pcfg.seed = args.getU("seed", kSeed);
    pcfg.record_events = true;
    core::SessionResult prof = core::runSession(game, baseline, pcfg);
    auto replica = games::makeGame(game.name());
    trace::Profile profile =
        trace::Replayer::replay(prof.trace, *replica);

    core::SnipConfig scfg;
    scfg.seed = pcfg.seed;
    scfg.overrides.force_keep = game.params().recommended_overrides;
    scfg.obs = obs;
    return core::buildSnipModel(profile, game, scfg);
}

int
cmdGames()
{
    util::TablePrinter t({"name", "display", "events/s", "types",
                          "input locations"});
    for (const auto &name : games::allGameNames()) {
        auto g = games::makeGame(name);
        t.addRow({name, g->displayName(),
                  util::TablePrinter::num(g->totalEventRate(), 1),
                  std::to_string(g->params().mix.size()),
                  std::to_string(g->schema().size())});
    }
    t.print(std::cout);
    return 0;
}

int
cmdCharacterize(const Args &args)
{
    auto game = games::makeGame(args.get("game", "ab_evolution"));
    core::BaselineScheme baseline;
    core::SimulationConfig cfg;
    cfg.duration_s = args.getD("seconds", 120.0);
    cfg.seed = args.getU("seed", 77);
    cfg.record_events = true;
    core::SessionResult res = core::runSession(*game, baseline, cfg);

    std::printf("%s", res.report.toString().c_str());
    soc::Battery battery(cfg.model.battery_mah, cfg.model.battery_volts);
    std::printf("battery projection: %.1f h from 100%%\n",
                battery.hoursToEmpty(res.report.averagePower()));

    auto replica = games::makeGame(game->name());
    trace::Profile profile =
        trace::Replayer::replay(res.trace, *replica);
    trace::FieldStatistics stats(profile, game->schema());
    std::printf("events: %zu  useless: %.1f%%  exact repeats: %.1f%%  "
                "output redundancy: %.1f%%\n",
                profile.records.size(),
                100.0 * stats.uselessFraction(),
                100.0 * stats.exactRepeatFraction(),
                100.0 * stats.outputRedundancyFraction());
    return 0;
}

int
cmdRecord(const Args &args)
{
    std::string out = args.get("out");
    if (out.empty())
        util::fatal("record: --out <file> is required");
    auto game = games::makeGame(args.get("game", "ab_evolution"));
    core::BaselineScheme baseline;
    core::SimulationConfig cfg;
    cfg.duration_s = args.getD("seconds", 300.0);
    cfg.seed = args.getU("seed", 77);
    cfg.record_events = true;
    core::SessionResult res = core::runSession(*game, baseline, cfg);

    util::ByteBuffer buf;
    trace::encodeEventTrace(res.trace, buf);
    util::Status st = trace::saveBuffer(buf, out);
    if (!st.ok())
        util::fatal("record: %s", st.message().c_str());
    std::printf("recorded %zu events of %s -> %s (%s)\n",
                res.trace.events.size(), game->name().c_str(),
                out.c_str(),
                util::formatSize(static_cast<double>(buf.size()))
                    .c_str());
    return 0;
}

int
cmdSelect(const Args &args)
{
    std::string in = args.get("in");
    if (in.empty())
        util::fatal("select: --in <events.bin> is required");
    util::ByteBuffer buf;
    util::Status st = trace::loadBuffer(in, &buf);
    if (!st.ok())
        util::fatal("select: %s", st.message().c_str());
    trace::EventTrace tr;
    st = trace::decodeEventTrace(buf, &tr);
    if (!st.ok())
        util::fatal("select: %s", st.message().c_str());
    auto game = games::makeGame(tr.game);
    trace::Profile profile = trace::Replayer::replay(tr, *game);

    std::string out = args.get("out");
    if (!out.empty()) {
        std::vector<uint8_t> bytes;
        st = trace::ColumnarLog::encodeTraining(profile, &bytes);
        if (st.ok())
            st = trace::ColumnarLog::save(bytes, out);
        if (!st.ok())
            util::fatal("select: %s", st.message().c_str());
        std::printf("profile -> %s (%s)\n", out.c_str(),
                    util::formatSize(static_cast<double>(bytes.size()))
                        .c_str());
    }

    core::SnipConfig cfg;
    cfg.seed = args.getU("seed", kSeed);
    cfg.overrides.force_keep = game->params().recommended_overrides;
    core::SnipModel model = core::buildSnipModel(profile, *game, cfg);

    std::printf("game %s: %zu records, %zu event types deployed\n",
                tr.game.c_str(), profile.records.size(),
                model.types.size());
    for (const auto &t : model.types) {
        // The deployed selection is the table's, as `inspect` reads
        // it from a package.
        const std::vector<events::FieldId> selected =
            model.table->selectedVector(t.type);
        std::printf("  %-12s %2zu necessary fields (%llu B), "
                    "holdout wrong hits %.2f%%, hit rate %.0f%%\n",
                    events::eventTypeName(t.type), selected.size(),
                    static_cast<unsigned long long>(
                        model.table->selectedBytes(t.type)),
                    100.0 * t.selection.selected_error,
                    100.0 * t.selection.selected_hit_rate);
        if (!args.get("verbose").empty()) {
            for (events::FieldId fid : selected)
                std::printf("      %s\n",
                            game->schema().def(fid).name.c_str());
        }
    }
    std::printf("deployable table: %zu entries, %s\n",
                model.table->entryCount(),
                util::formatSize(static_cast<double>(
                                     model.table->totalBytes()))
                    .c_str());
    return 0;
}

int
cmdEval(const Args &args)
{
    auto game = games::makeGame(args.get("game", "ab_evolution"));
    std::string scheme_name = args.get("scheme", "snip");
    core::SnipModel model = profiledModel(args, *game);

    core::SimulationConfig ecfg;
    ecfg.duration_s = args.getD("seconds", 60.0);
    ecfg.seed = util::mixCombine(args.getU("seed", kSeed), 0xe7a1);

    core::BaselineScheme base_eval;
    double e_base =
        core::runSession(*game, base_eval, ecfg).report.total();

    std::unique_ptr<core::Scheme> scheme;
    if (scheme_name == "baseline") {
        scheme = core::makeScheme(core::SchemeKind::Baseline);
    } else if (scheme_name == "maxcpu") {
        scheme = core::makeScheme(core::SchemeKind::MaxCpu);
    } else if (scheme_name == "maxip") {
        scheme = core::makeScheme(core::SchemeKind::MaxIp);
    } else if (scheme_name == "nooverheads") {
        scheme = core::makeScheme(core::SchemeKind::NoOverheads,
                                  &model);
    } else if (scheme_name == "snip") {
        core::SnipRuntimeConfig rcfg;
        rcfg.audit_every =
            static_cast<uint32_t>(args.getU("audit", 0));
        scheme = std::make_unique<core::SnipScheme>(model, rcfg);
    } else {
        util::fatal("unknown scheme '%s'", scheme_name.c_str());
    }

    core::SessionResult res = core::runSession(*game, *scheme, ecfg);
    core::QoeReport qoe =
        core::scoreQoe(res.stats, res.report.elapsed());

    std::printf("scheme: %s on %s (%.0f s)\n", scheme_name.c_str(),
                game->displayName().c_str(), ecfg.duration_s);
    std::printf("energy: %s (baseline %s) -> %.1f%% saved\n",
                util::formatEnergy(res.report.total()).c_str(),
                util::formatEnergy(e_base).c_str(),
                100.0 * (1.0 - res.report.total() / e_base));
    std::printf("coverage: %.1f%% of execution; %llu/%llu events "
                "short-circuited\n",
                100.0 * res.stats.coverageInstr(),
                static_cast<unsigned long long>(
                    res.stats.shortcircuits),
                static_cast<unsigned long long>(res.stats.events));
    std::printf("errors: %.3f%% output fields; QoE %s (%.2f "
                "perceptible glitches/min, %.2f corruptions/min)\n",
                100.0 * res.stats.errorFieldRate(),
                qoe.acceptable ? "acceptable" : "NOT acceptable",
                qoe.perceptible_glitches_per_minute,
                qoe.corruptions_per_minute);
    if (res.stats.lookup_bytes) {
        std::printf("lookup: %s/event compared, %.1f%% of energy\n",
                    util::formatSize(
                        static_cast<double>(res.stats.lookup_bytes) /
                        static_cast<double>(res.stats.events))
                        .c_str(),
                    100.0 * res.stats.lookup_energy_j /
                        res.report.total());
    }
    return 0;
}

int
cmdLearn(const Args &args)
{
    std::string name = args.get("game", "ab_evolution");
    auto game = games::makeGame(name);
    auto replica = games::makeGame(name);
    core::LearningConfig cfg;
    cfg.epochs = static_cast<int>(args.getU("epochs", 24));
    cfg.session_s = args.getD("seconds", 15.0);
    cfg.initial_profile_records = 24;
    cfg.snip.min_records_per_type = 8;
    cfg.sim.seed = args.getU("seed", 77);
    cfg.confidence_gate = !args.get("gate").empty();
    core::ContinuousLearner learner(*game, *replica, cfg);
    auto epochs = learner.run();
    std::printf("epoch  deployed  err fields  coverage  table\n");
    for (const auto &e : epochs) {
        std::printf("%5d  %-8s  %9.3f%%  %7.1f%%  %s\n", e.epoch,
                    e.deployed ? "yes" : "WAIT",
                    100.0 * e.error_field_rate, 100.0 * e.coverage,
                    util::formatSize(static_cast<double>(
                                         e.table_bytes))
                        .c_str());
    }
    return 0;
}

int
cmdPack(const Args &args)
{
    std::string out = args.get("out");
    if (out.empty())
        util::fatal("pack: --out <model.bin> is required");
    auto game = games::makeGame(args.get("game", "ab_evolution"));
    core::SnipModel model = profiledModel(args, *game);

    util::Status st = core::saveModel(model, out);
    if (!st.ok())
        util::fatal("pack: %s", st.message().c_str());
    std::printf("packed %s: %zu event types, %zu entries (%s table) "
                "-> %s (%s on the wire)\n",
                game->name().c_str(), model.types.size(),
                model.table->entryCount(),
                util::formatSize(static_cast<double>(
                                     model.table->totalBytes()))
                    .c_str(),
                out.c_str(),
                util::formatSize(static_cast<double>(
                                     core::packedModelBytes(model)))
                    .c_str());
    return 0;
}

int
cmdInspect(const Args &args)
{
    std::string in = args.get("in");
    if (in.empty())
        util::fatal("inspect: --in <model.bin> is required");
    util::ByteBuffer buf;
    util::Status st = trace::loadBuffer(in, &buf);
    if (!st.ok())
        util::fatal("inspect: %s", st.message().c_str());

    core::PackageInfo info;
    st = core::inspectPackage(buf, &info);
    if (!st.ok()) {
        std::printf("%s: NOT a model package: %s\n", in.c_str(),
                    st.message().c_str());
        return 1;
    }
    std::printf("%s: version %u, payload %s, crc 0x%08x (%s)\n",
                in.c_str(), info.version,
                util::formatSize(
                    static_cast<double>(info.payload_bytes))
                    .c_str(),
                info.crc, info.crc_ok ? "ok" : "MISMATCH");

    util::Result<core::SnipModel> model = core::unpackModel(buf);
    if (!model.ok()) {
        std::printf("payload rejected: %s\n",
                    model.status().message().c_str());
        return 1;
    }
    const core::SnipModel &m = model.value();
    std::printf("game %s: %zu event types deployed\n",
                m.game.c_str(), m.types.size());
    for (const auto &t : m.types) {
        std::printf("  %-12s %2zu necessary fields (%llu B), %llu "
                    "records, holdout wrong hits %.2f%%\n",
                    events::eventTypeName(t.type),
                    t.selection.selected.size(),
                    static_cast<unsigned long long>(
                        t.selection.selected_bytes),
                    static_cast<unsigned long long>(t.records),
                    100.0 * t.selection.selected_error);
        if (m.table && !args.get("verbose").empty()) {
            for (events::FieldId fid : t.selection.selected)
                std::printf("      %s\n",
                            m.table->schema().def(fid).name.c_str());
        }
    }
    if (m.table) {
        std::printf("table: %zu entries, %s modeled on-device\n",
                    m.table->entryCount(),
                    util::formatSize(static_cast<double>(
                                         m.table->totalBytes()))
                        .c_str());
        std::printf("frozen: %s arena\n",
                    util::formatSize(
                        static_cast<double>(m.table->arenaSize()))
                        .c_str());
    } else {
        std::printf("table: (none)\n");
    }
    return 0;
}

int
cmdVerify(const Args &args)
{
    std::string in = args.get("in");
    if (in.empty())
        util::fatal("verify: --in <model.bin> is required");
    util::Result<core::SnipModel> model = core::loadModel(in);
    if (!model.ok()) {
        std::printf("%s: REJECTED: %s\n", in.c_str(),
                    model.status().message().c_str());
        return 1;
    }
    std::printf("%s: OK (%s, %zu types, %zu entries)\n", in.c_str(),
                model.value().game.c_str(),
                model.value().types.size(),
                model.value().table
                    ? model.value().table->entryCount()
                    : 0);
    return 0;
}

int
cmdStats(const Args &args)
{
    auto game = games::makeGame(args.get("game", "ab_evolution"));
    obs::Registry reg;

    // Profile (un-instrumented, so the runtime metrics below
    // reflect only the deployed session) and Shrink with the
    // per-phase spans enabled.
    core::SnipModel model = profiledModel(args, *game, &reg);

    // Deploy + evaluate with the runtime counters on.
    core::SimulationConfig ecfg;
    ecfg.duration_s = args.getD("seconds", 60.0);
    ecfg.seed = util::mixCombine(args.getU("seed", kSeed), 0xe7a1);
    ecfg.obs = &reg;
    core::SnipRuntimeConfig rcfg;
    rcfg.audit_every = static_cast<uint32_t>(args.getU("audit", 0));
    rcfg.obs = &reg;
    core::SnipScheme scheme(model, rcfg);
    core::runSession(*game, scheme, ecfg);
    // Refresh the table gauges from the scheme: they describe the
    // deployed layout (frozen arena + whatever online fill grew in
    // the overlay during the session), not the build-side table.
    scheme.recordTableStats(reg);
    obs::exportTaskPoolStats(reg);

    std::printf("obs metrics: %s, %.0f s profile + %.0f s deployed "
                "session\n\n", game->displayName().c_str(),
                args.getD("profile-seconds", kProfileSeconds),
                ecfg.duration_s);
    obs::TableSink sink(std::cout);
    sink.write(reg);

    std::string json = args.get("json");
    if (!json.empty()) {
        util::Status st = obs::writeJsonFile(reg, json);
        if (!st.ok())
            util::fatal("stats: %s", st.message().c_str());
        std::printf("metrics -> %s\n", json.c_str());
    }
    return 0;
}

int
cmdFleetPublish(const Args &args)
{
    std::string dir = args.get("registry");
    std::string in = args.get("in");
    if (dir.empty() || in.empty())
        util::fatal("fleet publish: --registry <dir> and --in "
                    "<model.bin> are required");

    // Open (or start) the on-disk registry.
    fleet::ModelRegistry reg;
    auto loaded = fleet::ModelRegistry::loadDir(dir);
    if (loaded.ok())
        reg = std::move(loaded.value());

    auto pkg = std::make_shared<util::ByteBuffer>();
    util::Status st = trace::loadBuffer(in, pkg.get());
    if (!st.ok())
        util::fatal("fleet publish: %s", st.message().c_str());

    // The game line is read from the package itself unless pinned.
    std::string game = args.get("game");
    if (game.empty()) {
        util::Result<core::SnipModel> m = core::unpackModel(*pkg);
        if (!m.ok())
            util::fatal("fleet publish: %s is not a deployable "
                        "package: %s", in.c_str(),
                        m.status().message().c_str());
        game = m.value().game;
    }

    util::Result<fleet::VersionId> id =
        reg.publish(game, std::move(pkg),
                    args.getU("parent", 0));
    if (!id.ok())
        util::fatal("fleet publish: %s",
                    id.status().message().c_str());
    st = reg.saveDir(dir);
    if (!st.ok())
        util::fatal("fleet publish: %s", st.message().c_str());

    const fleet::ModelVersion *head = reg.head(game);
    std::printf("published %s version %016llx (epoch %u, parent "
                "%016llx) -> %s (%zu versions)\n",
                game.c_str(),
                static_cast<unsigned long long>(id.value()),
                head->epoch,
                static_cast<unsigned long long>(head->parent),
                dir.c_str(), reg.versionCount(game));
    return 0;
}

int
cmdFleetDiff(const Args &args)
{
    std::string from = args.get("from");
    std::string to = args.get("to");
    std::string out = args.get("out");
    if (from.empty() || to.empty() || out.empty())
        util::fatal("fleet diff: --from <old.bin>, --to <new.bin> "
                    "and --out <patch.snpd> are required");
    util::ByteBuffer a, b;
    util::Status st = trace::loadBuffer(from, &a);
    if (st.ok())
        st = trace::loadBuffer(to, &b);
    if (!st.ok())
        util::fatal("fleet diff: %s", st.message().c_str());

    util::ByteBuffer patch;
    fleet::diffBytes(std::span<const uint8_t>(a.data()),
                     std::span<const uint8_t>(b.data()), patch);
    st = trace::saveBuffer(patch, out);
    if (!st.ok())
        util::fatal("fleet diff: %s", st.message().c_str());

    fleet::PatchInfo info;
    st = fleet::inspectPatch(patch, &info);
    if (!st.ok())
        util::fatal("fleet diff: produced patch fails inspection: "
                    "%s", st.message().c_str());
    std::printf("%s -> %s: patch %s (full package %s, %.1f%%); %u "
                "copy ops reuse %s, %u inserts carry %s\n",
                from.c_str(), to.c_str(),
                util::formatSize(static_cast<double>(patch.size()))
                    .c_str(),
                util::formatSize(static_cast<double>(b.size()))
                    .c_str(),
                b.size() ? 100.0 * static_cast<double>(patch.size()) /
                               static_cast<double>(b.size())
                         : 0.0,
                info.copy_ops,
                util::formatSize(
                    static_cast<double>(info.copied_bytes))
                    .c_str(),
                info.insert_ops,
                util::formatSize(
                    static_cast<double>(info.inserted_bytes))
                    .c_str());
    return 0;
}

int
cmdFleetApply(const Args &args)
{
    std::string base = args.get("base");
    std::string patch_path = args.get("patch");
    std::string out = args.get("out");
    if (base.empty() || patch_path.empty() || out.empty())
        util::fatal("fleet apply: --base <old.bin>, --patch "
                    "<patch.snpd> and --out <new.bin> are required");
    util::ByteBuffer src, patch;
    util::Status st = trace::loadBuffer(base, &src);
    if (st.ok())
        st = trace::loadBuffer(patch_path, &patch);
    if (!st.ok())
        util::fatal("fleet apply: %s", st.message().c_str());

    util::Result<util::ByteBuffer> got =
        fleet::applyPatch(std::span<const uint8_t>(src.data()),
                          patch);
    if (!got.ok()) {
        // The device fallback: --full supplies the full package the
        // fetch would retrieve when the delta is rejected.
        std::string full = args.get("full");
        if (full.empty()) {
            std::printf("fleet apply: REJECTED: %s\n",
                        got.status().message().c_str());
            return 1;
        }
        util::ByteBuffer full_pkg;
        st = trace::loadBuffer(full, &full_pkg);
        if (!st.ok())
            util::fatal("fleet apply: %s", st.message().c_str());
        std::printf("fleet apply: delta rejected (%s); falling back "
                    "to full package %s\n",
                    got.status().message().c_str(), full.c_str());
        got = std::move(full_pkg);
    }
    st = trace::saveBuffer(got.value(), out);
    if (!st.ok())
        util::fatal("fleet apply: %s", st.message().c_str());
    std::printf("reconstructed %s (%s)\n", out.c_str(),
                util::formatSize(
                    static_cast<double>(got.value().size()))
                    .c_str());
    return 0;
}

void
usage()
{
    std::printf(
        "snip — selective event processing pipeline driver\n"
        "\n"
        "usage: snip <command> [options]\n"
        "  games                                list workloads\n"
        "  characterize --game G [--seconds S]  baseline stats\n"
        "  record --game G --out F [--seconds S] record events\n"
        "  select --in F [--out P] [--verbose]  replay + PFI\n"
        "                                       (--out: save the profile\n"
        "                                       as SNCT training columns\n"
        "                                       for out-of-core Shrink)\n"
        "  eval --game G [--scheme S] [--audit N] deploy + measure\n"
        "  learn --game G [--epochs E] [--gate]  continuous learning\n"
        "  pack --game G --out F                 build + serialize OTA model\n"
        "  inspect --in F [--verbose]            show a packed model\n"
        "  verify --in F                         integrity-check a model\n"
        "  stats --game G [--audit N] [--json F] obs metrics of a deploy\n"
        "  fleet publish --registry D --in F [--game G] [--parent H]\n"
        "                                       add a package to the\n"
        "                                       versioned model registry\n"
        "  fleet diff --from F --to F --out P    SNPD delta patch between\n"
        "                                       two packages\n"
        "  fleet apply --base F --patch P --out F [--full F]\n"
        "                                       apply a patch (falls back\n"
        "                                       to --full when rejected)\n"
        "common: --seed N\n"
        "eval, pack and stats take --profile-seconds S (default 300);\n"
        "they profile and Shrink under --seed, so one set of arguments\n"
        "builds one model\n");
}

}  // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    if (args.command == "games")
        return cmdGames();
    if (args.command == "characterize")
        return cmdCharacterize(args);
    if (args.command == "record")
        return cmdRecord(args);
    if (args.command == "select")
        return cmdSelect(args);
    if (args.command == "eval")
        return cmdEval(args);
    if (args.command == "learn")
        return cmdLearn(args);
    if (args.command == "pack")
        return cmdPack(args);
    if (args.command == "inspect")
        return cmdInspect(args);
    if (args.command == "verify")
        return cmdVerify(args);
    if (args.command == "stats")
        return cmdStats(args);
    if (args.command == "fleet publish")
        return cmdFleetPublish(args);
    if (args.command == "fleet diff")
        return cmdFleetDiff(args);
    if (args.command == "fleet apply")
        return cmdFleetApply(args);
    usage();
    return args.command.empty() ? 0 : 1;
}
