/**
 * @file
 * Permutation Feature Importance (paper §V-A, citing [6, 7]): the
 * importance of a feature is how much the model's output-prediction
 * error grows when that feature's column is randomly permuted
 * across rows, breaking its relationship with the label while
 * preserving its marginal distribution.
 *
 * Evaluation is task-parallel (one util::parallelFor task per
 * feature x repeat; each worker reuses thread_local scratch, which
 * is safe because a waiting caller never runs another loop's
 * indices). Each task's permutation stream is seeded from
 * (cfg.seed, column id, repeat) — not from the task's position in
 * the column list — so a column's importance is a pure function of
 * the seed and the column: identical for any thread count AND for
 * any subset of columns it is computed alongside (what lets the
 * feature selector cache importances of untouched columns exactly).
 */

#ifndef SNIP_ML_PFI_H
#define SNIP_ML_PFI_H

#include <vector>

#include "ml/predictor.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace snip {
namespace ml {

/** PFI knobs. */
struct PfiConfig {
    /** Permutation repeats per feature (importances averaged). */
    int repeats = 2;
    uint64_t seed = 0x9f1bea7ULL;
    /**
     * Worker threads for the feature x repeat task fan-out
     * (0 = SNIP_THREADS / all cores). Results are identical for any
     * value.
     */
    unsigned threads = 0;
    /**
     * Optional metrics sink (nullptr = observability off). Records
     * the `shrink.pfi` span and the `shrink.pfi.tasks` count, added
     * once by the caller after the join; never alters results.
     */
    obs::Registry *obs = nullptr;
};

/** Result of one PFI run. */
struct PfiResult {
    /** Weighted error of the unpermuted model. */
    double base_error = 0.0;
    /**
     * Per-feature importance, parallel to the feature-column list
     * passed in: mean(permuted error) - base_error, floored at 0.
     */
    std::vector<double> importance;
};

/**
 * Compute PFI of @p predictor (already trained on @p cols) over
 * @p ds. Only columns in @p cols are permuted.
 */
PfiResult computePfi(const Predictor &predictor, const DatasetView &ds,
                     const std::vector<size_t> &cols,
                     const PfiConfig &cfg = {});

}  // namespace ml
}  // namespace snip

#endif  // SNIP_ML_PFI_H
