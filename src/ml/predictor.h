/**
 * @file
 * Predictor interface: given a row's feature values (restricted to a
 * feature subset), predict the output signature. Implementations:
 * TablePredictor (exact-match majority table — what the deployed
 * lookup table is, and what PFI scores), DecisionTree and
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

    /** Predict the label for row @p row of @p ds. */
    virtual uint64_t predict(const DatasetView &ds, size_t row) const = 0;

    /**
     * Batched prediction over the row range [row_begin, row_end):
     * out_labels[r - row_begin] receives the prediction for row r.
     * Label-for-label identical to calling predict() per row;
     * implementations override it to amortize per-call work
     * (TablePredictor reads its stored row keys instead of rehashing
     * each row).
     */
    virtual void predictRows(const DatasetView &ds, size_t row_begin,
                             size_t row_end, uint64_t *out_labels) const;
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
