#include "core/snip.h"

#include "ml/dataset.h"
#include "obs/span.h"
#include "util/logging.h"

namespace snip {
namespace core {

namespace {

/**
 * Selection for one event type over any DatasetView storage — the
 * single path both the in-memory and the out-of-core builds go
 * through.
 */
TypeModel
selectForType(const ml::DatasetView &ds, events::EventType t,
              const SnipConfig &cfg,
              const std::vector<events::FieldId> &forced)
{
    ml::SelectionConfig sel;
    sel.max_error = kShrinkMaxError;
    sel.max_conditional_error = kShrinkMaxConditionalError;
    sel.pfi.repeats = kShrinkPfiRepeats;
    sel.pfi.seed = util::mixCombine(cfg.seed,
                                    static_cast<uint64_t>(t));
    sel.pfi.threads = cfg.threads;
    sel.obs = cfg.obs;
    for (events::FieldId fid : forced) {
        if (ds.columnOf(fid) != SIZE_MAX)
            sel.forced_keep.push_back(fid);
    }

    TypeModel tm;
    tm.type = t;
    tm.records = ds.numRows();
    tm.selection = ml::selectNecessaryInputs(ds, sel);
    return tm;
}

/** Resolve force-keep override names; fatal on unknown names. */
std::vector<events::FieldId>
resolveForced(const games::Game &game, const SnipConfig &cfg)
{
    std::vector<events::FieldId> forced;
    for (const auto &name : cfg.overrides.force_keep) {
        events::FieldId fid = game.schema().find(name);
        if (fid == events::kInvalidField)
            util::fatal("developer override names unknown field '%s'",
                        name.c_str());
        forced.push_back(fid);
    }
    return forced;
}

}  // namespace

uint64_t
SnipModel::selectedBytes() const
{
    if (!table)
        return 0;
    uint64_t total = 0;
    for (int t = 0; t < events::kNumEventTypes; ++t)
        total +=
            table->selectedBytes(static_cast<events::EventType>(t));
    return total;
}

SnipModel
buildSnipModel(const trace::Profile &profile, const games::Game &game,
               const SnipConfig &cfg)
{
    SnipModel model;
    model.game = profile.game;
    MemoTable table(game.schema());
    obs::Span shrink_span(cfg.obs, "shrink");

    std::vector<events::FieldId> forced = resolveForced(game, cfg);

    for (events::EventType t : profile.typesPresent()) {
        std::vector<const games::HandlerExecution *> records;
        {
            obs::Span s(cfg.obs, "dataset");
            records = profile.ofType(t);
        }
        if (records.size() < cfg.min_records_per_type) {
            util::warn("snip: %s has only %zu records of %s; leaving "
                       "type undeployed", profile.game.c_str(),
                       records.size(), events::eventTypeName(t));
            if (cfg.obs)
                cfg.obs->counter("shrink.types_skipped").add(1);
            continue;
        }
        ml::Dataset ds = [&] {
            obs::Span s(cfg.obs, "dataset");
            return ml::Dataset(records, game.schema());
        }();
        TypeModel tm = selectForType(ds, t, cfg, forced);
        table.setSelected(t, tm.selection.selected);
        model.types.push_back(std::move(tm));
        if (cfg.obs)
            cfg.obs->counter("shrink.types_deployed").add(1);
    }

    // Pre-fill the table from the profile (the OTA payload).
    {
        obs::Span s(cfg.obs, "prefill");
        for (const auto &rec : profile.records)
            table.insert(rec);
    }
    if (cfg.obs)
        table.recordStats(*cfg.obs);
    model.table = table.freeze();
    return model;
}

util::Result<SnipModel>
buildSnipModel(std::shared_ptr<const trace::ColumnarLog> tlog,
               const games::Game &game, const SnipConfig &cfg,
               const ml::ChunkedConfig &chunked)
{
    if (!tlog)
        return util::Status::Error("snip: null trace");
    std::vector<events::EventType> ttypes = tlog->trainingTypes();
    if (ttypes.empty())
        return util::Status::Error(
            "snip: trace carries no training sections "
            "(write one with `snip select --out`)");

    SnipModel model;
    model.game = tlog->game();
    MemoTable table(game.schema());
    obs::Span shrink_span(cfg.obs, "shrink");

    std::vector<events::FieldId> forced = resolveForced(game, cfg);

    // Every section gets a bounded-RSS view (prefill needs even the
    // undeployed types); selection runs only on types with evidence.
    std::vector<std::shared_ptr<const ml::ChunkedDataset>> views;
    views.reserve(ttypes.size());
    for (events::EventType t : ttypes) {
        auto dsr = [&] {
            obs::Span s(cfg.obs, "dataset");
            return ml::ChunkedDataset::attach(tlog, t, game.schema(),
                                              chunked);
        }();
        if (!dsr.ok())
            return dsr.status();
        const auto &ds = *dsr.value();
        views.push_back(dsr.value());
        if (ds.numRows() < cfg.min_records_per_type) {
            util::warn("snip: %s has only %zu records of %s; leaving "
                       "type undeployed", model.game.c_str(),
                       ds.numRows(), events::eventTypeName(t));
            if (cfg.obs)
                cfg.obs->counter("shrink.types_skipped").add(1);
            continue;
        }
        TypeModel tm = selectForType(ds, t, cfg, forced);
        table.setSelected(t, tm.selection.selected);
        model.types.push_back(std::move(tm));
        if (cfg.obs)
            cfg.obs->counter("shrink.types_deployed").add(1);
    }

    // Pre-fill grouped by type: MemoTable buckets per type and keeps
    // within-type insertion order, so this builds the same table as
    // the profile-order walk in the in-memory path.
    {
        obs::Span s(cfg.obs, "prefill");
        games::HandlerExecution rec;
        for (const auto &view : views) {
            size_t blk = view->streamBlockRows();
            size_t row_bytes = (view->numFeatures() + 2) * 8;
            for (size_t row = 0; row < view->numRows(); ++row) {
                view->materializeRecord(row, &rec);
                table.insert(rec);
                if ((row + 1) % blk == 0)
                    view->noteStreamed(blk * row_bytes);
            }
        }
    }
    if (cfg.obs)
        table.recordStats(*cfg.obs);
    model.table = table.freeze();
    return util::Result<SnipModel>(std::move(model));
}

}  // namespace core
}  // namespace snip
