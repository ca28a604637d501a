#include "ml/pfi.h"

#include <algorithm>

#include "obs/span.h"
#include "util/parallel.h"

namespace snip {
namespace ml {

namespace {

/**
 * Per-worker scratch for one permutation pass, reused across tasks
 * on the same worker thread (thread_local: tasks never share).
 */
struct PfiScratch {
    std::vector<size_t> perm;       // row permutation
    std::vector<uint64_t> permuted; // permuted column values, by row
    std::vector<uint64_t> pred;     // predicted labels, block-sized
};

thread_local PfiScratch t_scratch;

/** Rows per batched prediction block. */
constexpr size_t kPredBlock = 512;

/**
 * Weighted error of @p predictor with column @p col permuted by the
 * stream (seed, col, rep). Allocation-free after scratch warm-up.
 */
double
permutedError(const Predictor &predictor, const DatasetView &ds,
              size_t col, uint64_t seed, int rep)
{
    size_t n = ds.numRows();
    PfiScratch &s = t_scratch;

    // Fisher-Yates permutation of row indices into reusable scratch
    // (same algorithm as util::Rng::permutation, minus its per-call
    // allocation): row r reads the value of row perm[r].
    util::Rng rng(util::mixCombine(
        seed, util::mixCombine(col, static_cast<uint64_t>(rep))));
    s.perm.resize(n);
    for (size_t i = 0; i < n; ++i)
        s.perm[i] = i;
    for (size_t i = n; i > 1; --i) {
        size_t j = static_cast<size_t>(rng.uniformInt(0, i - 1));
        std::swap(s.perm[i - 1], s.perm[j]);
    }

    // Materialize the permuted column once (cache-linear gather from
    // the dataset's contiguous column store) so prediction can run
    // batched with a per-row override array.
    const uint64_t *colv = ds.columnData(col);
    s.permuted.resize(n);
    for (size_t r = 0; r < n; ++r)
        s.permuted[r] = colv[s.perm[r]];

    s.pred.resize(std::min(n, kPredBlock));
    uint64_t wrong = 0;
    for (size_t begin = 0; begin < n; begin += kPredBlock) {
        size_t end = std::min(n, begin + kPredBlock);
        predictor.predictRows(ds, begin, end, s.pred.data(), col,
                              s.permuted.data());
        for (size_t r = begin; r < end; ++r) {
            if (s.pred[r - begin] != ds.label(r))
                wrong += ds.weight(r);
        }
    }
    return static_cast<double>(wrong) /
           static_cast<double>(ds.totalWeight());
}

}  // namespace

PfiResult
computePfi(const Predictor &predictor, const DatasetView &ds,
           const std::vector<size_t> &cols, const PfiConfig &cfg)
{
    PfiResult result;
    result.base_error = weightedErrorRate(predictor, ds);
    result.importance.assign(cols.size(), 0.0);
    if (cols.empty() || cfg.repeats <= 0)
        return result;

    // One task per (feature, repeat); every task writes only its
    // own slot of the error matrix, and the reduction below runs
    // serially in task order, so the result is bitwise identical
    // for any worker count.
    obs::Span span(cfg.obs, "pfi");
    size_t repeats = static_cast<size_t>(cfg.repeats);
    std::vector<double> err(cols.size() * repeats, 0.0);
    util::parallelFor(err.size(), [&](size_t k) {
        err[k] = permutedError(predictor, ds, cols[k / repeats],
                               cfg.seed, static_cast<int>(k % repeats));
    }, cfg.threads);
    if (cfg.obs)
        cfg.obs->counter("shrink.pfi.tasks").add(err.size());

    for (size_t ci = 0; ci < cols.size(); ++ci) {
        double err_sum = 0.0;
        for (size_t rep = 0; rep < repeats; ++rep)
            err_sum += err[ci * repeats + rep];
        double imp = err_sum / static_cast<double>(repeats) -
                     result.base_error;
        result.importance[ci] = imp > 0.0 ? imp : 0.0;
    }
    return result;
}

}  // namespace ml
}  // namespace snip
