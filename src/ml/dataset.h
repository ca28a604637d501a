/**
 * @file
 * Tabular view of a profile for the ML layer. Rows are handler
 * executions of one event type; columns (features) are the union of
 * input field locations those executions ever read — exactly the
 * union-of-locations record the naive lookup table stores (§III).
 * Records that did not read a location carry an explicit ABSENT
 * marker there. The label of a row is the signature of its output
 * writes; predicting the label IS predicting the memoized outputs.
 *
 * Two concrete storages share one view type:
 *
 *   - Dataset: in-memory, built from HandlerExecution records (the
 *     seed-scale path);
 *   - ChunkedDataset (chunked_dataset.h): a bounded-RSS view over a
 *     memory-mapped SNCT training trace (the out-of-core path).
 *
 * DatasetView's hot accessors (value/label/weight/columnData) are
 * non-virtual reads through base-class pointers, so the ML inner
 * loops compile identically for both storages; only the residency
 * hooks (noteStreamed/releaseResidency) are virtual, and those sit
 * outside the per-row loops.
 */

#ifndef SNIP_ML_DATASET_H
#define SNIP_ML_DATASET_H

#include <cstdint>
#include <span>
#include <vector>

#include "events/field.h"
#include "games/handler.h"

namespace snip {
namespace ml {

/** Marker for "this record did not read this location". */
constexpr uint64_t kAbsent = 0xab5e9700ab5e9700ULL;

/**
 * Read-only feature matrix over one event type's records: the
 * interface every predictor / PFI / selection routine trains
 * against. Column-major value storage (column c occupies
 * values_[c * rows .. (c + 1) * rows)), so per-column scans are
 * cache-linear regardless of the backing storage.
 */
class DatasetView
{
  public:
    virtual ~DatasetView() = default;

    size_t numRows() const { return rows_; }
    size_t numFeatures() const { return featureFields_.size(); }

    /** Field id behind feature column @p col. */
    events::FieldId featureField(size_t col) const;
    /** Column index of a field id; SIZE_MAX when absent. */
    size_t columnOf(events::FieldId fid) const;

    /** Value of (row, col); kAbsent when the record lacks it. */
    uint64_t value(size_t row, size_t col) const
    {
        return values_[col * rows_ + row];
    }

    /**
     * Contiguous column @p col (rows_ values). The value store is
     * column-major, so the PFI permutation and tree-split loops over
     * a column are cache-linear.
     */
    const uint64_t *columnData(size_t col) const
    {
        return values_ + col * rows_;
    }

    /** Output-signature label of a row. */
    uint64_t label(size_t row) const { return labels_[row]; }
    /** Contiguous label array (rows_ values) — digesting/scans. */
    const uint64_t *labelData() const { return labels_; }

    /** Dynamic-instruction weight of a row. */
    uint64_t weight(size_t row) const { return weights_[row]; }
    /** Contiguous weight array (rows_ values) — digesting/scans. */
    const uint64_t *weightData() const { return weights_; }
    /** Sum of all row weights. */
    uint64_t totalWeight() const { return totalWeight_; }

    /** The schema this dataset was built against. */
    const events::FieldSchema &schema() const { return *schema_; }

    /** Declared size (bytes) of the field behind a column. */
    uint32_t featureBytes(size_t col) const;

    /** Sum of declared sizes over a set of columns. */
    uint64_t bytesOfColumns(const std::vector<size_t> &cols) const;

    /**
     * Rows a streaming consumer should process between
     * noteStreamed() calls (the out-of-core block geometry).
     * SIZE_MAX for fully resident storage: never interrupt.
     */
    size_t streamBlockRows() const { return streamBlockRows_; }

    /**
     * Residency hook: a consumer just streamed @p bytes of the value
     * store. A bounded-RSS storage uses the accumulated volume to
     * decide when to drop clean pages; in-memory storage ignores it.
     * Never affects values, so results are invariant under any call
     * cadence (the block-size digest-equality contract).
     */
    virtual void noteStreamed(size_t bytes) const { (void)bytes; }

    /** Drop any droppable residency immediately (no-op in memory). */
    virtual void releaseResidency() const {}

    /**
     * Process-unique id of this view, drawn from a monotonic counter
     * at construction and never reused (unlike an address, which a
     * later view can inherit). Per-row state derived from a view,
     * such as TablePredictor's row keys, is bound to this id.
     */
    uint64_t id() const { return id_; }

  protected:
    DatasetView();
    DatasetView(const DatasetView &) = delete;
    DatasetView &operator=(const DatasetView &) = delete;

    const uint64_t *values_ = nullptr;  // column-major, cols x rows
    const uint64_t *labels_ = nullptr;
    const uint64_t *weights_ = nullptr;
    const events::FieldSchema *schema_ = nullptr;
    size_t rows_ = 0;
    uint64_t totalWeight_ = 0;
    size_t streamBlockRows_ = SIZE_MAX;
    std::vector<events::FieldId> featureFields_;  // sorted

  private:
    uint64_t id_;
};

/** In-memory feature matrix over one event type's records. */
class Dataset : public DatasetView
{
  public:
    /**
     * @param records Handler executions (all the same event type).
     *        Borrowed only for the constructor's duration; the
     *        dataset copies the values out and keeps no pointers.
     * @param schema The game's field schema (sizes/categories);
     *        must outlive the dataset.
     *
     * Construction does a fixed number of allocations (the column /
     * label / weight arrays), never O(rows): the field-id union is
     * gathered into a reserved vector + sort + unique instead of a
     * node-based set, and the column-major fill writes into
     * pre-sized storage.
     */
    Dataset(std::span<const games::HandlerExecution *const> records,
            const events::FieldSchema &schema);

  private:
    std::vector<uint64_t> ownedValues_;
    std::vector<uint64_t> ownedLabels_;
    std::vector<uint64_t> ownedWeights_;
};

}  // namespace ml
}  // namespace snip

#endif  // SNIP_ML_DATASET_H
