/**
 * @file
 * Exact-match table predictor: the learned model *is* a lookup
 * table keyed on the selected feature values; each key maps to the
 * majority output signature seen for that key in training. This is
 * precisely the structure SNIP deploys to the phone, so measuring
 * its error under feature trimming measures deployed behaviour.
 */

#ifndef SNIP_ML_TABLE_PREDICTOR_H
#define SNIP_ML_TABLE_PREDICTOR_H

#include <unordered_map>

#include "ml/predictor.h"
#include "util/rng.h"

namespace snip {
namespace ml {

/**
 * Majority-vote exact-match table over selected features.
 *
 * A row's key is a commutative wrapping sum,
 * kKeySeed + sum over selected columns c of mixCombine(c, value), so
 * keys are derived rather than recomputed: a dropped column subtracts
 * its term and a permuted column swaps one term, each in O(1) per
 * row. Training keeps the keys of every row of the view it trained
 * on, bound to that view's id(); calls on the same view read them,
 * calls on any other view recompute the sum (keyOf).
 */
class TablePredictor : public Predictor
{
  public:
    /** Key of a row over no columns. */
    static constexpr uint64_t kKeySeed = 0x5eedf00d5eedULL;

    /**
     * Keys of every row of @p ds over @p cols, swept one column at a
     * time (cache-linear in the column-major store, noteStreamed()
     * per streamBlockRows() block). O(rows * cols).
     */
    static std::vector<uint64_t> rowKeys(const DatasetView &ds,
                                         const std::vector<size_t> &cols);

    /**
     * Remove column @p col's term from @p keys (one key per row of
     * @p ds, as rowKeys() returns): the keys of the same set without
     * @p col, in O(rows).
     */
    static void dropColumn(const DatasetView &ds, size_t col,
                           std::vector<uint64_t> &keys);

    void train(const DatasetView &ds,
               const std::vector<size_t> &feature_cols) override;

    /** Train on a row subset (for held-out evaluation). */
    void trainOnRows(const DatasetView &ds,
                     const std::vector<size_t> &feature_cols,
                     const std::vector<size_t> &rows);

    /**
     * trainOnRows() with the keys supplied: @p keys must be
     * rowKeys(ds, feature_cols), possibly derived via dropColumn().
     * The model keeps them for later calls on @p ds. Tallies with one
     * O(rows log rows) sort of (key, label, position) triples.
     */
    void trainOnKeys(const DatasetView &ds,
                     const std::vector<size_t> &feature_cols,
                     std::vector<uint64_t> keys,
                     const std::vector<size_t> &rows);

    uint64_t predict(const DatasetView &ds, size_t row,
                     size_t override_col = SIZE_MAX,
                     uint64_t override_value = 0) const override;

    size_t predictRow(const DatasetView &ds, size_t row,
                      size_t override_col = SIZE_MAX,
                      uint64_t override_value = 0) const override;

    void predictRows(const DatasetView &ds, size_t row_begin,
                     size_t row_end, uint64_t *out_labels,
                     size_t override_col = SIZE_MAX,
                     const uint64_t *override_values =
                         nullptr) const override;

    /**
     * Strict lookup: true (and the majority label) only when the
     * row's key exists in the trained table — a deployment "hit".
     * Misses fall back to full processing and are therefore not
     * errors, the distinction the feature selector relies on.
     */
    bool lookupLabel(const DatasetView &ds, size_t row,
                     uint64_t &label) const;

    /**
     * Online insert: add the row's key -> label mapping unless the
     * key already exists (append-only, first wins — the deployed
     * table's semantics between cloud re-learns).
     */
    void insertRow(const DatasetView &ds, size_t row);

    /** Number of distinct keys in the trained table. */
    size_t tableRows() const { return fkeys_.size() + delta_.size(); }

    /**
     * Number of distinct labels observed under a key averaged over
     * keys — > 1 means the selected features are ambiguous (the
     * Fig. 8a "more than one possible output" situation).
     */
    double meanLabelsPerKey() const;

    /** Fraction of training weight under keys with > 1 label. */
    double ambiguousWeightFraction() const
    {
        return ambiguousWeightFraction_;
    }

    /**
     * Content hash over the full table state (see Predictor):
     * covers the frozen columns, the fallback, AND the online delta
     * (sorted by key), since insertRow() changes predictions too.
     */
    uint64_t fingerprint() const override;

  private:
    struct Entry {
        uint64_t majority_label = kNoLabel;
        size_t representative_row = SIZE_MAX;
        uint32_t distinct_labels = 0;
    };

    /** One column's term of a row key. */
    static uint64_t term(size_t col, uint64_t value)
    {
        return util::mixCombine(col, value);
    }

    /**
     * @p col when it is a selected column, else SIZE_MAX: an override
     * of an unselected column changes no key.
     */
    size_t selectedOrNone(size_t col) const;

    /**
     * Key of @p row, summed over cols_, with @p override_col reading
     * @p override_value.
     */
    uint64_t keyOf(const DatasetView &ds, size_t row, size_t override_col,
                   uint64_t override_value) const;

    /**
     * keyOf(), derived from the stored key in O(1) when @p ds is the
     * view trained on. @p override_col is selected or SIZE_MAX.
     */
    uint64_t keyAt(const DatasetView &ds, size_t row, size_t override_col,
                   uint64_t override_value) const;

    /** Frozen-table probe: entry index for @p key, or SIZE_MAX. */
    size_t probe(uint64_t key) const;
    struct Hit {
        bool hit = false;
        uint64_t label = kNoLabel;
        size_t repr = SIZE_MAX;
    };
    /** Probe frozen then delta; the PFI inner loop lives here. */
    Hit find(uint64_t key) const;

    std::vector<size_t> cols_;
    /** Key of every row of the view trained on, and that view's id. */
    std::vector<uint64_t> keys_;
    uint64_t keysView_ = 0;

    /**
     * The trained table is frozen after trainOnKeys into the same
     * shape the runtime deploys (core::FrozenTable): a power-of-two
     * open-addressing slot array over flat entry columns, probed
     * with one index hit + linear scan and zero allocation. Online
     * insertRow() keys land in the small delta_ map instead — the
     * frozen arrays stay immutable between re-trains.
     */
    std::vector<uint64_t> fkeys_;        // entry keys, ascending
    std::vector<uint64_t> flabels_;      // majority label per entry
    std::vector<size_t> freprs_;         // representative row
    std::vector<uint32_t> fdistinct_;    // distinct labels per key
    std::vector<uint32_t> fslots_;       // entry index + 1; 0 = empty
    std::unordered_map<uint64_t, Entry> delta_;
    uint64_t fallbackLabel_ = kNoLabel;
    size_t fallbackRow_ = SIZE_MAX;
    double ambiguousWeightFraction_ = 0.0;
};

}  // namespace ml
}  // namespace snip

#endif  // SNIP_ML_TABLE_PREDICTOR_H
