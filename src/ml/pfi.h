/**
 * @file
 * Permutation Feature Importance (paper §V-A, citing [6, 7]): the
 * importance of a feature is how much the model's output-prediction
 * error grows when that feature's column is randomly permuted
 * across rows, breaking its relationship with the label while
 * preserving its marginal distribution.
 *
 * Each feature is permuted kPfiRepeats times and its importance is
 * the mean over the repeats. Evaluation is task-parallel (one
 * util::parallelFor task per feature x repeat; each worker reuses
 * thread_local scratch, which is safe because a waiting caller never
 * runs another loop's indices). Each task's permutation stream is
 * seeded from (cfg.seed, column id, repeat) — not from the task's
 * position in the column list — so a column's importance is a pure
 * function of the seed and the column: identical for any thread
 * count AND for any subset of columns it is computed alongside, with
 * or without a PfiStore (what lets a selection refresh score only
 * the columns it may still drop, and chartTail() re-score the knee
 * set, exactly).
 *
 * The scored model is a TablePredictor, whose row key is a wrapping
 * sum of per-column terms: permuting column c moves row r's key by
 * delta[r] = term(c, v[perm[r]]) - term(c, v[r]). A task builds
 * those deltas (Fisher-Yates over the column's terms) and scores
 * them with TablePredictor::permutedWrong(). The deltas depend on
 * the view and (seed, c, repeat) alone, not on the model, so a
 * PfiStore keeps them across the refreshes of one selection.
 */

#ifndef SNIP_ML_PFI_H
#define SNIP_ML_PFI_H

#include <memory>
#include <vector>

#include "ml/table_predictor.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace snip {
namespace ml {

/** Permutation repeats per feature (importances averaged). */
constexpr size_t kPfiRepeats = 2;

/** PFI knobs. */
struct PfiConfig {
    uint64_t seed = 0x9f1bea7ULL;
    /**
     * Worker threads for the feature x repeat task fan-out
     * (0 = SNIP_THREADS / all cores). Results are identical for any
     * value.
     */
    unsigned threads = 0;
    /**
     * Optional metrics sink (nullptr = observability off). Records
     * the `shrink.pfi` span, the `shrink.pfi.tasks` count and the
     * `shrink.pfi.reused` count (tasks that read a PfiStore's
     * deltas), added once by the caller after the join; never alters
     * results.
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

class PfiStore;

/**
 * Compute PFI of @p model (already trained on @p cols) over @p ds.
 * Only columns in @p cols are permuted. With @p store, each task
 * reads its stored deltas, or fills its claimed slot, instead of
 * rebuilding them in scratch; results are bitwise the same either
 * way. Panics when @p store is bound to another view, seed or row
 * count.
 */
PfiResult computePfi(const TablePredictor &model, const DatasetView &ds,
                     const std::vector<size_t> &cols,
                     const PfiConfig &cfg = {},
                     PfiStore *store = nullptr);

/**
 * One selection's PFI key deltas, one slot per (column, repeat), so
 * the refreshes of one selection build each permuted column once.
 *
 *   - Bound to (view id, seed, rows) at construction;
 *     computePfi() panics on a mismatch.
 *   - computePfi() claims slots serially, in task order, before its
 *     tasks run, and each task fills only its own slot: the bytes
 *     held are the same for any worker count.
 *   - Holds at most the view's own value store
 *     (rows x features x 8 bytes). A task whose slot does not fit
 *     builds its deltas in per-worker scratch.
 *   - Out-of-core views (finite streamBlockRows()) keep nothing, so
 *     their heap stays within the chunked residency design.
 *
 * A store serves one computePfi() call at a time.
 */
class PfiStore
{
  public:
    PfiStore(const DatasetView &ds, const PfiConfig &cfg);

    /** Free @p col's slots: the column is not scored again. */
    void release(size_t col);

    /** Bytes of deltas held. */
    size_t bytes() const { return held_; }

  private:
    friend PfiResult computePfi(const TablePredictor &,
                                const DatasetView &,
                                const std::vector<size_t> &,
                                const PfiConfig &, PfiStore *);

    struct Slot {
        std::unique_ptr<uint64_t[]> deltas;
        /** Filled by a finished computePfi(), not just claimed. */
        bool filled = false;
    };

    uint64_t view_;
    uint64_t seed_;
    size_t rows_;
    size_t budget_;
    size_t held_ = 0;
    std::vector<Slot> slots_;  // [col * kPfiRepeats + rep]
};

}  // namespace ml
}  // namespace snip

#endif  // SNIP_ML_PFI_H
