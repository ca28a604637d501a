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

#include <deque>
#include <vector>

#include "ml/predictor.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace snip {
namespace ml {

class PfiCache;

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
    /**
     * Optional cross-run result cache (nullptr = off). Safe because
     * hits are exact: the lookup key covers everything the result is
     * a function of (see pfiCacheKey), so a cached PfiResult is the
     * bitwise value a fresh run would compute. Used by the feature
     * selector / continuous learner to skip re-scoring columns whose
     * inputs did not change between refreshes or epochs.
     */
    PfiCache *cache = nullptr;
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
 * Bounded FIFO cache of PfiResults keyed by pfiCacheKey(). One cache
 * persists across feature-selection refreshes and continuous-learning
 * epochs; capacity covers the refresh sequence of a full selection
 * run (each Phase A commit shrinks the column set, giving a new key),
 * so an epoch that replays the same sequence hits every entry.
 */
class PfiCache
{
  public:
    /** Cached result for @p key, or nullptr. Never returns for 0. */
    const PfiResult *find(uint64_t key) const;

    /** Insert (evicting the oldest beyond capacity). Ignores 0. */
    void insert(uint64_t key, PfiResult result);

    size_t size() const { return entries_.size(); }

  private:
    static constexpr size_t kMaxEntries = 64;
    struct Entry {
        uint64_t key = 0;
        PfiResult result;
    };
    std::deque<Entry> entries_;  // FIFO, newest at back
};

/**
 * Exact content key of a PFI run: mixes the predictor fingerprint,
 * row count, seed and repeats, label/weight CRCs, and per scored
 * column (column index, field id, value CRC). Permutation streams
 * are seeded per (seed, column, repeat) — never by list position —
 * and prediction reads only the scored columns, so two runs with
 * equal keys produce bitwise-identical PfiResults. Returns 0 (no
 * caching) when the predictor is unfingerprintable.
 */
uint64_t pfiCacheKey(const Predictor &predictor,
                     const DatasetView &ds,
                     const std::vector<size_t> &cols,
                     const PfiConfig &cfg);

/**
 * Compute PFI of @p predictor (already trained on @p cols) over
 * @p ds. Only columns in @p cols are permuted. With cfg.cache set,
 * serves exact hits from the cache (counter shrink.pfi.cols_cached)
 * instead of re-scoring (counter shrink.pfi.cols_rescored).
 */
PfiResult computePfi(const Predictor &predictor, const DatasetView &ds,
                     const std::vector<size_t> &cols,
                     const PfiConfig &cfg = {});

}  // namespace ml
}  // namespace snip

#endif  // SNIP_ML_PFI_H
