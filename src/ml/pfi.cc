#include "ml/pfi.h"

#include <utility>

#include "obs/span.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace snip {
namespace ml {

namespace {

/**
 * Per-worker deltas of a task with no store slot, reused across
 * tasks on the same worker thread (thread_local: tasks never share).
 */
thread_local std::vector<uint64_t> t_deltas;

/**
 * Fill @p out with the key deltas of column @p col permuted by the
 * stream (seed, col, rep): out[r] = term(col, v[perm[r]]) -
 * term(col, v[r]). The Fisher-Yates swaps (the algorithm of
 * util::Rng::permutation) run on the column's terms themselves, so
 * row r ends up holding the term of row perm[r] without a
 * permutation array or a gather.
 */
void
permutedDeltas(const DatasetView &ds, size_t col, uint64_t seed,
               size_t rep, uint64_t *out)
{
    size_t n = ds.numRows();
    const uint64_t *v = ds.columnData(col);
    for (size_t r = 0; r < n; ++r)
        out[r] = TablePredictor::term(col, v[r]);
    util::Rng rng(util::mixCombine(seed, util::mixCombine(col, rep)));
    for (size_t i = n; i > 1; --i) {
        size_t j = static_cast<size_t>(rng.uniformInt(0, i - 1));
        std::swap(out[i - 1], out[j]);
    }
    for (size_t r = 0; r < n; ++r)
        out[r] -= TablePredictor::term(col, v[r]);
}

}  // namespace

PfiStore::PfiStore(const DatasetView &ds, const PfiConfig &cfg)
    : view_(ds.id()), seed_(cfg.seed), rows_(ds.numRows()),
      budget_(ds.streamBlockRows() == SIZE_MAX
                  ? ds.numRows() * ds.numFeatures() * sizeof(uint64_t)
                  : 0),
      slots_(ds.numFeatures() * kPfiRepeats)
{
}

void
PfiStore::release(size_t col)
{
    for (size_t rep = 0; rep < kPfiRepeats; ++rep) {
        Slot &s = slots_.at(col * kPfiRepeats + rep);
        if (s.deltas)
            held_ -= rows_ * sizeof(uint64_t);
        s = Slot{};
    }
}

PfiResult
computePfi(const TablePredictor &model, const DatasetView &ds,
           const std::vector<size_t> &cols, const PfiConfig &cfg,
           PfiStore *store)
{
    PfiResult result;
    result.base_error = weightedErrorRate(model, ds);
    result.importance.assign(cols.size(), 0.0);
    if (cols.empty())
        return result;
    size_t n = ds.numRows();
    if (store && (store->view_ != ds.id() || store->seed_ != cfg.seed ||
                  store->rows_ != n))
        util::panic("computePfi: store bound to another view or config");

    // One task per (feature, repeat). Its deltas come from a filled
    // store slot, a slot claimed for it here (serially, in task
    // order, within the store's budget) or per-worker scratch.
    obs::Span span(cfg.obs, "pfi");
    size_t ntasks = cols.size() * kPfiRepeats;
    std::vector<PfiStore::Slot *> slot(ntasks, nullptr);
    uint64_t reused = 0;
    if (store) {
        for (size_t k = 0; k < ntasks; ++k) {
            PfiStore::Slot &s = store->slots_.at(
                cols[k / kPfiRepeats] * kPfiRepeats + k % kPfiRepeats);
            if (s.filled) {
                slot[k] = &s;
                ++reused;
            } else if (!s.deltas &&
                       store->held_ + n * sizeof(uint64_t) <=
                           store->budget_) {
                s.deltas = std::make_unique_for_overwrite<uint64_t[]>(n);
                store->held_ += n * sizeof(uint64_t);
                slot[k] = &s;
            }
        }
    }

    // Every task writes only its own slot of the error matrix, and
    // the reduction below runs serially in task order, so the result
    // is bitwise identical for any worker count.
    std::vector<double> err(ntasks, 0.0);
    util::parallelFor(ntasks, [&](size_t k) {
        size_t col = cols[k / kPfiRepeats];
        PfiStore::Slot *s = slot[k];
        uint64_t *deltas;
        if (s) {
            deltas = s->deltas.get();
        } else {
            t_deltas.resize(n);
            deltas = t_deltas.data();
        }
        if (!s || !s->filled)
            permutedDeltas(ds, col, cfg.seed, k % kPfiRepeats, deltas);
        err[k] = static_cast<double>(model.permutedWrong(ds, col, deltas)) /
                 static_cast<double>(ds.totalWeight());
    }, cfg.threads);
    for (PfiStore::Slot *s : slot)
        if (s)
            s->filled = true;
    if (cfg.obs) {
        cfg.obs->counter("shrink.pfi.tasks").add(ntasks);
        cfg.obs->counter("shrink.pfi.reused").add(reused);
    }

    for (size_t ci = 0; ci < cols.size(); ++ci) {
        double err_sum = 0.0;
        for (size_t rep = 0; rep < kPfiRepeats; ++rep)
            err_sum += err[ci * kPfiRepeats + rep];
        double imp = err_sum / static_cast<double>(kPfiRepeats) -
                     result.base_error;
        result.importance[ci] = imp > 0.0 ? imp : 0.0;
    }
    return result;
}

}  // namespace ml
}  // namespace snip
