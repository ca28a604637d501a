#include "ml/feature_selection.h"

#include <algorithm>

#include "obs/span.h"
#include "util/logging.h"

namespace snip {
namespace ml {

namespace {

/** How far past the knee chartTail() charts (Fig. 9). */
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

/**
 * The table predictor one selection retrains, on the time-ordered
 * split of its view: train on the earlier 70%, evaluate deployment
 * behaviour (wrong hits) on the later 30%. This is what catches
 * row-id-like features (e.g. context-block hashes) that memorize the
 * training profile but never match again. Each train and holdout
 * walk runs under its own span; with a null registry the spans are
 * inert and these are plain calls.
 */
struct Trainer {
    const DatasetView &ds;
    obs::Registry *obs;
    std::vector<size_t> train_rows, holdout_rows;
    TablePredictor model;

    Trainer(const DatasetView &view, obs::Registry *reg)
        : ds(view), obs(reg)
    {
        size_t n = ds.numRows();
        size_t train_n = std::max<size_t>(
            1, static_cast<size_t>(n * kTrainFraction));
        if (train_n >= n)
            train_n = n - (n > 1 ? 1 : 0);
        for (size_t i = 0; i < n; ++i)
            (i < train_n ? train_rows : holdout_rows).push_back(i);
        if (holdout_rows.empty())
            holdout_rows.push_back(n - 1);
    }

    /** Train on @p cols, whose row keys are @p keys. */
    void train(const std::vector<size_t> &cols,
               const std::vector<uint64_t> &keys)
    {
        obs::Span s(obs, "train");
        model.trainOnKeys(ds, cols, keys, train_rows);
    }

    HoldoutEval holdout()
    {
        obs::Span s(obs, "holdout");
        return evaluateHoldout(model, ds, holdout_rows);
    }

    /** The curve step of dropping @p col, leaving @p cols. */
    TrimStep step(size_t col, const std::vector<size_t> &cols,
                  const HoldoutEval &ev) const
    {
        TrimStep st;
        st.dropped = ds.featureField(col);
        st.dropped_cat = ds.schema().def(st.dropped).in_cat;
        st.dropped_bytes = ds.featureBytes(col);
        st.remaining_bytes = ds.bytesOfColumns(cols);
        st.error = ev.wrong_hit;
        st.hit_rate = ev.hit_rate;
        return st;
    }
};

/** @p cfg's PFI knobs; the nested PFI runs inherit the selector's
 *  registry unless the caller wired one explicitly. */
PfiConfig
pfiConfigOf(const SelectionConfig &cfg)
{
    PfiConfig pfi = cfg.pfi;
    if (!pfi.obs)
        pfi.obs = cfg.obs;
    return pfi;
}

}  // namespace

SelectionResult
selectNecessaryInputs(const DatasetView &ds, const SelectionConfig &cfg)
{
    SelectionResult out;
    obs::Span sel_span(cfg.obs, "select");
    PfiConfig pfi_cfg = pfiConfigOf(cfg);

    std::vector<size_t> cols(ds.numFeatures());
    for (size_t i = 0; i < cols.size(); ++i)
        cols[i] = i;

    std::vector<char> locked(ds.numFeatures(), 0);
    for (events::FieldId fid : cfg.forced_keep) {
        size_t c = ds.columnOf(fid);
        if (c != SIZE_MAX)
            locked[c] = 1;
    }

    // `keys` are the row keys of the committed set `cols`; a trial
    // drop derives its own from them in O(rows) instead of rehashing
    // every column.
    Trainer tr(ds, cfg.obs);
    std::vector<uint64_t> keys = TablePredictor::rowKeys(ds, cols);
    std::vector<uint64_t> trial_keys;
    tr.train(cols, keys);
    HoldoutEval cur = tr.holdout();
    out.full_error = cur.wrong_hit;
    out.full_bytes = ds.bytesOfColumns(cols);

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
    // a refresh scores just those; per-column PFI permutation
    // streams are column-keyed (pfi.h), so a column's importance
    // does not depend on the others scored with it. For the same
    // reason each refresh reads the permuted columns' key deltas
    // from one store instead of rebuilding them; a column's slots
    // are freed once it is dropped.
    std::vector<double> imp_by_col(ds.numFeatures(), 0.0);
    PfiStore store(ds, pfi_cfg);
    auto refresh_pfi = [&]() {
        std::vector<size_t> want;
        want.reserve(cols.size());
        for (size_t c : cols)
            if (!locked[c])
                want.push_back(c);
        PfiResult pfi = computePfi(tr.model, ds, want, pfi_cfg, &store);
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

    // Backward elimination with restore-and-lock.
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
            tr.train(trial, trial_keys);
            HoldoutEval ev = tr.holdout();
            if (ev.wrong_hit <= cfg.max_error &&
                ev.conditionalError() <= cfg.max_conditional_error) {
                cols = std::move(trial);
                keys.swap(trial_keys);
                store.release(col);
                cur = ev;
                out.curve.push_back(tr.step(col, cols, ev));
                committed = true;
                if (cfg.obs) {
                    cfg.obs->counter("shrink.select.drops_committed")
                        .add(1);
                }
                if (++commits_since_refresh >= kPfiRefreshEvery) {
                    tr.train(cols, keys);
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
    return out;
}

void
chartTail(const DatasetView &ds, SelectionResult &result,
          const SelectionConfig &cfg)
{
    obs::Span tail_span(cfg.obs, "tail");

    // Columns ascend with field ids, so the sorted selection names
    // the knee set in the column order selection left it in (the
    // order that breaks the ties below). A row key is a wrapping sum
    // of column terms, so rowKeys() gives exactly the keys selection
    // derived by subtraction.
    std::vector<size_t> cols;
    for (events::FieldId fid : result.selected) {
        size_t c = ds.columnOf(fid);
        if (c == SIZE_MAX)
            util::panic("chartTail: selected field %u is not a column "
                        "of the view", fid);
        cols.push_back(c);
    }
    if (cols.size() <= 1)
        return;
    std::vector<uint64_t> keys = TablePredictor::rowKeys(ds, cols);
    Trainer tr(ds, cfg.obs);
    tr.train(cols, keys);
    // Column-keyed PFI streams: the scores selection's store would
    // have served, recomputed.
    PfiResult pfi = computePfi(tr.model, ds, cols, pfiConfigOf(cfg));

    // Drop the least important remaining feature per byte (largest
    // first on a tie), whatever the error, so the curve shows the
    // ramp past the knee.
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
        tr.train(cols, keys);
        HoldoutEval ev = tr.holdout();
        result.curve.push_back(tr.step(col, cols, ev));
        if (ev.wrong_hit > kCurveStopError)
            break;
    }
}

}  // namespace ml
}  // namespace snip
