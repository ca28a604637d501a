#include "ml/feature_selection.h"

#include <algorithm>

#include "obs/span.h"
#include "util/logging.h"

namespace snip {
namespace ml {

namespace {

/** How far past the knee the exploratory tail charts (Fig. 9). */
constexpr double kCurveStopError = 0.40;
/** Importances are recomputed every this many committed drops. */
constexpr int kPfiRefreshEvery = 6;
/** Fraction of (time-ordered) records used for training. */
constexpr double kTrainFraction = 0.7;

/** Held-out wrong-hit rate and hit rate of a trained table. */
struct HoldoutEval {
    double wrong_hit = 0.0;
    double hit_rate = 0.0;

    /** Wrong hits as a fraction of hits (0 when nothing hit). */
    double conditionalError() const
    {
        return hit_rate > 0.0 ? wrong_hit / hit_rate : 0.0;
    }
};

HoldoutEval
evaluateHoldout(TablePredictor &model, const DatasetView &ds,
                const std::vector<size_t> &holdout)
{
    // Prequential walk: misses are inserted (first-wins), exactly
    // like the deployed table's online fill, so degenerate key sets
    // that memorize rather than generalize reveal their wrong hits
    // here rather than on the user's phone.
    uint64_t total = 0, hits = 0, wrong = 0;
    for (size_t row : holdout) {
        total += ds.weight(row);
        uint64_t label;
        if (model.lookupLabel(ds, row, label)) {
            hits += ds.weight(row);
            if (label != ds.label(row))
                wrong += ds.weight(row);
        } else {
            model.insertRow(ds, row);
        }
    }
    HoldoutEval ev;
    if (total) {
        ev.wrong_hit = static_cast<double>(wrong) /
                       static_cast<double>(total);
        ev.hit_rate = static_cast<double>(hits) /
                      static_cast<double>(total);
    }
    return ev;
}

}  // namespace

SelectionResult
selectNecessaryInputs(const DatasetView &ds, const SelectionConfig &cfg)
{
    SelectionResult out;
    obs::Span sel_span(cfg.obs, "select");

    // The nested PFI runs inherit the selector's registry unless the
    // caller wired one explicitly.
    PfiConfig pfi_cfg = cfg.pfi;
    if (!pfi_cfg.obs)
        pfi_cfg.obs = cfg.obs;

    std::vector<size_t> cols(ds.numFeatures());
    for (size_t i = 0; i < cols.size(); ++i)
        cols[i] = i;

    // Time-ordered split: train on the earlier 70%, evaluate
    // deployment behaviour (wrong hits) on the later 30%. This is
    // what catches row-id-like features (e.g. context-block hashes)
    // that memorize the training profile but never match again.
    size_t n = ds.numRows();
    size_t train_n = std::max<size_t>(1, static_cast<size_t>(
                                             n * kTrainFraction));
    if (train_n >= n)
        train_n = n - (n > 1 ? 1 : 0);
    std::vector<size_t> train_rows, holdout_rows;
    for (size_t i = 0; i < n; ++i)
        (i < train_n ? train_rows : holdout_rows).push_back(i);
    if (holdout_rows.empty())
        holdout_rows.push_back(n - 1);

    std::vector<char> locked(ds.numFeatures(), 0);
    for (events::FieldId fid : cfg.forced_keep) {
        size_t c = ds.columnOf(fid);
        if (c != SIZE_MAX)
            locked[c] = 1;
    }

    TablePredictor model;
    // Span-wrapped phase helpers; with a null registry the spans are
    // inert and these are plain calls. `keys` are the row keys of the
    // committed set `cols`; a trial drop derives its own from them in
    // O(rows) instead of rehashing every column.
    std::vector<uint64_t> keys = TablePredictor::rowKeys(ds, cols);
    std::vector<uint64_t> trial_keys;
    auto train_model = [&](const std::vector<size_t> &use_cols,
                           const std::vector<uint64_t> &use_keys) {
        obs::Span s(cfg.obs, "train");
        model.trainOnKeys(ds, use_cols, use_keys, train_rows);
    };
    auto eval_holdout = [&]() {
        obs::Span s(cfg.obs, "holdout");
        return evaluateHoldout(model, ds, holdout_rows);
    };
    train_model(cols, keys);
    HoldoutEval cur = eval_holdout();
    out.full_error = cur.wrong_hit;
    out.full_bytes = ds.bytesOfColumns(cols);

    auto record_step = [&](size_t col, const HoldoutEval &ev) {
        TrimStep step;
        step.dropped = ds.featureField(col);
        step.dropped_cat = ds.schema().def(step.dropped).in_cat;
        step.dropped_bytes = ds.featureBytes(col);
        step.remaining_bytes = ds.bytesOfColumns(cols);
        step.error = ev.wrong_hit;
        step.hit_rate = ev.hit_rate;
        out.curve.push_back(step);
    };

    // PFI (on a model trained over the training split, evaluated
    // with the miss-is-error metric) only *orders* drop candidates;
    // correctness comes from the try-drop-with-restore loop below.
    // Importance is normalized per byte so that bulky proxies (4 kB
    // context blocks mirroring a 4 B state variable) sweep out
    // first — a minimal-byte necessary set is SNIP's objective.
    //
    // Importances live in a direct per-column array (no per-compare
    // list scan), refreshed every kPfiRefreshEvery committed drops.
    // Only unlocked columns are ever ordered as drop candidates, so
    // with cache_pfi the refresh recomputes just those and keeps
    // cached values for locked columns — identical output, because
    // per-column PFI permutation streams are column-keyed (pfi.h).
    std::vector<double> imp_by_col(ds.numFeatures(), 0.0);
    auto refresh_pfi = [&]() {
        std::vector<size_t> want;
        want.reserve(cols.size());
        for (size_t c : cols)
            if (!cfg.cache_pfi || !locked[c])
                want.push_back(c);
        PfiResult pfi = computePfi(model, ds, want, pfi_cfg);
        for (size_t i = 0; i < want.size(); ++i)
            imp_by_col[want[i]] = pfi.importance[i];
        if (cfg.obs)
            cfg.obs->counter("shrink.select.pfi_refreshes").add(1);
    };
    refresh_pfi();
    auto per_byte_cmp = [&](size_t a, size_t b) {
        double ia = imp_by_col[a] /
                    static_cast<double>(ds.featureBytes(a));
        double ib = imp_by_col[b] /
                    static_cast<double>(ds.featureBytes(b));
        if (ia != ib)
            return ia < ib;
        return ds.featureBytes(a) > ds.featureBytes(b);
    };

    // --- Phase A: backward elimination with restore-and-lock.
    int commits_since_refresh = 0;
    for (;;) {
        std::vector<size_t> order;
        for (size_t c : cols)
            if (!locked[c])
                order.push_back(c);
        if (order.empty() || cols.size() <= 1)
            break;
        std::sort(order.begin(), order.end(), per_byte_cmp);

        bool committed = false;
        for (size_t col : order) {
            std::vector<size_t> trial;
            trial.reserve(cols.size() - 1);
            for (size_t c : cols)
                if (c != col)
                    trial.push_back(c);
            trial_keys = keys;
            TablePredictor::dropColumn(ds, col, trial_keys);
            train_model(trial, trial_keys);
            HoldoutEval ev = eval_holdout();
            if (ev.wrong_hit <= cfg.max_error &&
                ev.conditionalError() <= cfg.max_conditional_error) {
                cols = std::move(trial);
                keys.swap(trial_keys);
                cur = ev;
                record_step(col, ev);
                committed = true;
                if (cfg.obs) {
                    cfg.obs->counter("shrink.select.drops_committed")
                        .add(1);
                }
                if (++commits_since_refresh >= kPfiRefreshEvery) {
                    train_model(cols, keys);
                    refresh_pfi();
                    commits_since_refresh = 0;
                }
                break;
            }
            locked[col] = 1;  // necessary: keep it from now on
            if (cfg.obs)
                cfg.obs->counter("shrink.select.drops_restored").add(1);
        }
        if (!committed)
            break;
    }

    out.selected.clear();
    for (size_t c : cols)
        out.selected.push_back(ds.featureField(c));
    std::sort(out.selected.begin(), out.selected.end());
    out.selected_bytes = ds.bytesOfColumns(cols);
    out.selected_error = cur.wrong_hit;
    out.selected_hit_rate = cur.hit_rate;

    // --- Phase B: exploratory tail past the knee. Keep dropping the
    // least-important remaining feature regardless of the budget so
    // the Fig. 9 curve shows the error ramp; does not affect the
    // selected set.
    train_model(cols, keys);
    PfiResult pfi = computePfi(model, ds, cols, pfi_cfg);
    while (cols.size() > 1) {
        size_t pick = 0;
        auto per_byte = [&](size_t i) {
            return pfi.importance[i] /
                   static_cast<double>(ds.featureBytes(cols[i]));
        };
        for (size_t i = 1; i < cols.size(); ++i) {
            if (per_byte(i) < per_byte(pick) ||
                (per_byte(i) == per_byte(pick) &&
                 ds.featureBytes(cols[i]) > ds.featureBytes(cols[pick])))
                pick = i;
        }
        size_t col = cols[pick];
        cols.erase(cols.begin() + static_cast<long>(pick));
        pfi.importance.erase(pfi.importance.begin() +
                             static_cast<long>(pick));
        TablePredictor::dropColumn(ds, col, keys);
        train_model(cols, keys);
        HoldoutEval ev = eval_holdout();
        record_step(col, ev);
        if (ev.wrong_hit > kCurveStopError)
            break;
    }
    return out;
}

}  // namespace ml
}  // namespace snip
