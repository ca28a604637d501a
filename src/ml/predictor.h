/**
 * @file
 * Predictor interface for the PFI machinery: given a row's feature
 * values (restricted to a feature subset), predict the output
 * signature. Implementations: TablePredictor (exact-match majority
 * table — what the deployed lookup table is), DecisionTree and
 * RandomForest (reference learners for the predictor ablation).
 */

#ifndef SNIP_ML_PREDICTOR_H
#define SNIP_ML_PREDICTOR_H

#include <cstdint>
#include <vector>

#include "ml/dataset.h"

namespace snip {
namespace ml {

/** Sentinel label meaning "no prediction available". */
constexpr uint64_t kNoLabel = 0x90a6e100090a6e10ULL;

/** Abstract output-signature predictor. */
class Predictor
{
  public:
    virtual ~Predictor() = default;

    /**
     * Fit on @p ds using only @p feature_cols (column indices).
     */
    virtual void train(const DatasetView &ds,
                       const std::vector<size_t> &feature_cols) = 0;

    /**
     * Predict the label for row @p row of @p ds, with the values of
     * selected columns optionally overridden: when @p override_col
     * != SIZE_MAX, the value of that column is @p override_value
     * (a permuted column without copying the matrix: the semantics
     * TablePredictor::permutedWrong() scores PFI with).
     */
    virtual uint64_t predict(const DatasetView &ds, size_t row,
                             size_t override_col = SIZE_MAX,
                             uint64_t override_value = 0) const = 0;

    /**
     * Row index of a *representative* training row carrying the
     * predicted label, or SIZE_MAX when unavailable. Lets callers
     * recover concrete output field values behind a prediction.
     */
    virtual size_t predictRow(const DatasetView &ds, size_t row,
                              size_t override_col = SIZE_MAX,
                              uint64_t override_value = 0) const = 0;

    /**
     * Batched prediction over the row range [row_begin, row_end):
     * out_labels[r - row_begin] receives the prediction for row r.
     * When @p override_col != SIZE_MAX, @p override_values must be
     * non-null and override_values[r] replaces the value of that
     * column for row r — a whole permuted column in one call.
     * Label-for-label identical to calling predict() per row;
     * implementations override it to amortize per-call work
     * (TablePredictor swaps one key term per row instead of
     * rehashing the row).
     */
    virtual void predictRows(const DatasetView &ds, size_t row_begin,
                             size_t row_end, uint64_t *out_labels,
                             size_t override_col = SIZE_MAX,
                             const uint64_t *override_values =
                                 nullptr) const;
};

/**
 * Weighted misclassification rate of @p p over all rows of @p ds
 * (weights = dynamic instructions, matching the paper's
 * "% execution" accounting).
 */
double weightedErrorRate(const Predictor &p, const DatasetView &ds);

}  // namespace ml
}  // namespace snip

#endif  // SNIP_ML_PREDICTOR_H
