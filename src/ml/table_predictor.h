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

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ml/dataset.h"
#include "util/rng.h"

namespace snip {
namespace ml {

/** Sentinel label meaning "no prediction available". */
constexpr uint64_t kNoLabel = 0x90a6e100090a6e10ULL;

/**
 * Majority-vote exact-match table over selected features.
 *
 * A row's key is a commutative wrapping sum,
 * kKeySeed + sum over selected columns c of mixCombine(c, value), so
 * keys are derived rather than recomputed: a dropped column subtracts
 * its term and a permuted column moves each key by one term's
 * difference, each in O(1) per row. Training keeps the keys of every
 * row of the view it trained on, bound to that view's id(); calls on
 * the same view read them, calls on any other view recompute the sum
 * (keyOf).
 */
class TablePredictor
{
  public:
    /** Key of a row over no columns. */
    static constexpr uint64_t kKeySeed = 0x5eedf00d5eedULL;

    /** One column's term of a row key. */
    static uint64_t term(size_t col, uint64_t value)
    {
        return util::mixCombine(col, value);
    }

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

    /** Fit on @p ds using only @p feature_cols (column indices). */
    void train(const DatasetView &ds,
               const std::vector<size_t> &feature_cols);

    /** Train on a row subset (for held-out evaluation). */
    void trainOnRows(const DatasetView &ds,
                     const std::vector<size_t> &feature_cols,
                     const std::vector<size_t> &rows);

    /**
     * trainOnRows() with the keys supplied: @p keys must be
     * rowKeys(ds, feature_cols), possibly derived via dropColumn().
     * The model keeps them for later calls on @p ds. Tallies by
     * scattering the rows into ~8-row buckets on their keys' top bits
     * and sorting each bucket: O(rows) for distinct keys, one
     * O(rows log rows) stable sort when all keys are equal.
     */
    void trainOnKeys(const DatasetView &ds,
                     const std::vector<size_t> &feature_cols,
                     std::vector<uint64_t> keys,
                     const std::vector<size_t> &rows);

    /** Majority label of row @p row's key, else the fallback label. */
    uint64_t predict(const DatasetView &ds, size_t row) const;

    /**
     * predict() over the row range [row_begin, row_end):
     * out_labels[r - row_begin] receives row r's label. On the view
     * trained on it reads the stored row keys instead of rehashing
     * each row.
     */
    void predictRows(const DatasetView &ds, size_t row_begin,
                     size_t row_end, uint64_t *out_labels) const;

    /**
     * Weight of the rows of @p ds mispredicted when each row's key
     * moves by @p delta[r] (wrapping): the PFI score of a permuted
     * column @p col, whose deltas are term(col, v[perm[r]]) -
     * term(col, v[r]). One pass over the stored keys with one probe
     * per row on the view trained on; a column outside the key
     * moves nothing. Label-for-label what predictRows() predicts on
     * a copy of the view with that column permuted.
     */
    uint64_t permutedWrong(const DatasetView &ds, size_t col,
                           const uint64_t *delta) const;

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

    /** Number of distinct keys, trained and inserted. */
    size_t tableRows() const { return fkeys_.size(); }

    /**
     * Content hash over the full table state: covers the trained
     * entries in order, the fallback label, AND the inserted entries
     * (sorted by key), since insertRow() changes predictions too.
     * Equal fingerprints imply identical predictions for identical
     * inputs (the tests' model-equality oracle).
     */
    uint64_t fingerprint() const;

  private:
    /**
     * One slot of the open-addressing index: its entry's key and
     * majority label inline, so a probe reads one slot instead of
     * slot -> key -> label, and the entry index + 1 (0 = empty). An
     * empty slot's label is the fallback label, so the slot a probe
     * ends on is its prediction, hit or miss.
     */
    struct Slot {
        uint64_t key = 0;
        uint64_t label = kNoLabel;
        uint32_t entry = 0;
    };

    /** Key of @p row, summed over cols_. */
    uint64_t keyOf(const DatasetView &ds, size_t row) const;

    /** keyOf(), read from the stored keys when @p ds is the view
     *  trained on. */
    uint64_t keyAt(const DatasetView &ds, size_t row) const
    {
        return ds.id() == keysView_ ? keys_[row] : keyOf(ds, row);
    }

    /**
     * Slot of @p key in fslots_: the slot holding its entry, or the
     * empty slot that ends its probe run (load <= 0.5 guarantees one).
     */
    size_t slotOf(uint64_t key) const
    {
        // One branch per step, taken only past another key's slot:
        // min(key difference, entry) is 0 on a hit and on an empty
        // slot alike, so which of the two ends the probe is not a
        // branch (a permuted column mixes them at random).
        size_t mask = fslots_.size() - 1;
        size_t i = static_cast<size_t>(key) & mask;
        while (std::min<uint64_t>(fslots_[i].key ^ key,
                                  fslots_[i].entry) != 0)
            i = (i + 1) & mask;
        return i;
    }

    /** Majority label of @p key's entry, else the fallback label. */
    uint64_t labelOf(uint64_t key) const
    {
        return fslots_[slotOf(key)].label;
    }

    /** Re-index every entry in fslots_ at load <= 0.5. */
    void rebuildIndex();

    std::vector<size_t> cols_;
    /** Key of every row of the view trained on, and that view's id. */
    std::vector<uint64_t> keys_;
    uint64_t keysView_ = 0;

    /**
     * The table has the shape the runtime deploys (core::FrozenTable):
     * flat entry columns under a power-of-two open-addressing slot
     * array (load <= 0.5), probed with one index hit + linear scan
     * and zero allocation. The first ntrained_ entries are the
     * trained ones, keys ascending; insertRow() appends after them
     * and indexes into the same slots, so every key exists once.
     * Each slot repeats its entry's key and label (rebuildIndex()
     * and insertRow() keep them in sync).
     */
    std::vector<uint64_t> fkeys_;        // entry keys
    std::vector<uint64_t> flabels_;      // majority label per entry
    std::vector<Slot> fslots_ = std::vector<Slot>(4);
    size_t ntrained_ = 0;
    uint64_t fallbackLabel_ = kNoLabel;
};

/**
 * Weighted misclassification rate of @p p over all rows of @p ds
 * (weights = dynamic instructions, matching the paper's
 * "% execution" accounting).
 */
double weightedErrorRate(const TablePredictor &p, const DatasetView &ds);

}  // namespace ml
}  // namespace snip

#endif  // SNIP_ML_TABLE_PREDICTOR_H
