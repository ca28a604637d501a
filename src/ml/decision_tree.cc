#include "ml/decision_tree.h"

#include <algorithm>

#include "util/logging.h"

namespace snip {
namespace ml {

namespace {

/**
 * Weighted Gini impurity of a dense label tally (indexed by the
 * tree's label dictionary). Ascending index is ascending label, and
 * empty labels are skipped, so the summation order — and hence the
 * floating-point result — matches the old ordered-map tally exactly.
 */
double
gini(const std::vector<uint64_t> &tally, uint64_t total)
{
    if (total == 0)
        return 0.0;
    double g = 1.0;
    for (uint64_t c : tally) {
        if (c == 0)
            continue;
        double p = static_cast<double>(c) /
                   static_cast<double>(total);
        g -= p * p;
    }
    return g;
}

/**
 * Cells budget of the distinct-value x label histogram. Splits whose
 * matrix would exceed it (e.g. a row-unique blob column against many
 * labels) fall back to the per-threshold rescan, which evaluates the
 * identical integers — the histogram is purely a one-pass
 * acceleration of the same tallies.
 */
constexpr size_t kHistCells = size_t{1} << 21;

}  // namespace

DecisionTree::DecisionTree(TreeConfig cfg) : cfg_(cfg) {}

void
DecisionTree::train(const DatasetView &ds,
                    const std::vector<size_t> &feature_cols)
{
    std::vector<size_t> rows(ds.numRows());
    for (size_t i = 0; i < rows.size(); ++i)
        rows[i] = i;
    trainOnRows(ds, feature_cols, rows);
}

void
DecisionTree::trainOnRows(const DatasetView &ds,
                          const std::vector<size_t> &feature_cols,
                          const std::vector<size_t> &rows)
{
    nodes_.clear();

    // Build the label dictionary once per training run; every split
    // then tallies through dense indices instead of an ordered map.
    labels_.clear();
    labels_.reserve(rows.size());
    for (size_t r : rows)
        labels_.push_back(ds.label(r));
    std::sort(labels_.begin(), labels_.end());
    labels_.erase(std::unique(labels_.begin(), labels_.end()),
                  labels_.end());
    row_label_idx_.assign(ds.numRows(), 0);
    for (size_t r : rows)
        row_label_idx_[r] = static_cast<uint32_t>(
            std::lower_bound(labels_.begin(), labels_.end(),
                             ds.label(r)) -
            labels_.begin());
    tally_.assign(labels_.size(), 0);
    lt_.assign(labels_.size(), 0);
    rt_.assign(labels_.size(), 0);

    // One frontier array for the whole build; build() partitions it
    // in place and recurses on [lo, hi) ranges.
    frontier_.assign(rows.begin(), rows.end());
    vals_.reserve(frontier_.size());
    util::Rng rng(cfg_.seed);
    build(ds, feature_cols, 0, frontier_.size(), 0, rng);

    // Everything but the node array is build-time scratch. Release
    // it (capacity included) so a trained tree holds O(nodes), not
    // O(rows).
    for (auto *v : {&labels_, &tally_, &lt_, &rt_, &vals_, &hist_,
                    &histW_})
        std::vector<uint64_t>().swap(*v);
    std::vector<uint32_t>().swap(row_label_idx_);
    std::vector<size_t>().swap(frontier_);
    std::vector<size_t>().swap(partScratch_);
}

int
DecisionTree::makeLeaf(const DatasetView &ds, size_t lo, size_t hi)
{
    Node n;
    std::fill(tally_.begin(), tally_.end(), 0);
    for (size_t i = lo; i < hi; ++i) {
        size_t r = frontier_[i];
        tally_[row_label_idx_[r]] += ds.weight(r);
    }
    // Strict > over ascending labels keeps the smallest-label
    // tie-break of the ordered-map scan.
    uint64_t best = 0;
    for (size_t i = 0; i < labels_.size(); ++i) {
        if (tally_[i] > best) {
            best = tally_[i];
            n.label = labels_[i];
        }
    }
    nodes_.push_back(n);
    return static_cast<int>(nodes_.size() - 1);
}

int
DecisionTree::build(const DatasetView &ds,
                    const std::vector<size_t> &cols, size_t lo,
                    size_t hi, int depth, util::Rng &rng)
{
    size_t nrows = hi - lo;
    // Homogeneous or tiny partitions become leaves.
    bool uniform = true;
    for (size_t i = lo + 1; i < hi; ++i) {
        if (ds.label(frontier_[i]) != ds.label(frontier_[lo])) {
            uniform = false;
            break;
        }
    }
    if (uniform || depth >= cfg_.max_depth ||
        nrows < cfg_.min_samples_split)
        return makeLeaf(ds, lo, hi);

    // Candidate feature set.
    std::vector<size_t> cand = cols;
    if (cfg_.feature_subsample > 0 &&
        cfg_.feature_subsample < cand.size()) {
        auto perm = rng.permutation(cand.size());
        std::vector<size_t> sub;
        for (size_t i = 0; i < cfg_.feature_subsample; ++i)
            sub.push_back(cand[perm[i]]);
        cand = std::move(sub);
    }

    std::fill(tally_.begin(), tally_.end(), 0);
    uint64_t total_w = 0;
    for (size_t i = lo; i < hi; ++i) {
        size_t r = frontier_[i];
        tally_[row_label_idx_[r]] += ds.weight(r);
        total_w += ds.weight(r);
    }
    double parent_gini = gini(tally_, total_w);

    double best_gain = 1e-12;
    size_t best_col = SIZE_MAX;
    uint64_t best_thr = 0;
    size_t nlabels = labels_.size();

    for (size_t col : cand) {
        // Distinct values as threshold candidates (capped). The
        // contiguous column keeps the scans below cache-linear in
        // the column even though the node rows are a bootstrap
        // subset.
        const uint64_t *colv = ds.columnData(col);
        vals_.clear();
        for (size_t i = lo; i < hi; ++i)
            vals_.push_back(colv[frontier_[i]]);
        std::sort(vals_.begin(), vals_.end());
        vals_.erase(std::unique(vals_.begin(), vals_.end()),
                    vals_.end());
        size_t nvals = vals_.size();
        if (nvals < 2)
            continue;
        size_t step = std::max<size_t>(
            1, nvals / static_cast<size_t>(cfg_.threshold_candidates));

        bool use_hist =
            nlabels != 0 && nvals <= kHistCells / nlabels;
        if (use_hist) {
            // One pass: per-(distinct value, label) weight tallies,
            // then a running prefix over ascending distinct values
            // yields the exact left/right tallies at each threshold.
            // Everything is uint64, so the result is bitwise equal
            // to rescanning the rows per threshold.
            hist_.assign(nvals * nlabels, 0);
            histW_.assign(nvals, 0);
            for (size_t i = lo; i < hi; ++i) {
                size_t r = frontier_[i];
                size_t di = static_cast<size_t>(
                    std::lower_bound(vals_.begin(), vals_.end(),
                                     colv[r]) -
                    vals_.begin());
                uint64_t w = ds.weight(r);
                hist_[di * nlabels + row_label_idx_[r]] += w;
                histW_[di] += w;
            }
            std::fill(lt_.begin(), lt_.end(), 0);
            uint64_t lw = 0;
            size_t next_di = 0;
            for (size_t i = 0; i + 1 < nvals; i += step) {
                for (; next_di <= i; ++next_di) {
                    const uint64_t *h = &hist_[next_di * nlabels];
                    for (size_t l = 0; l < nlabels; ++l)
                        lt_[l] += h[l];
                    lw += histW_[next_di];
                }
                uint64_t rw = total_w - lw;
                if (lw == 0 || rw == 0)
                    continue;
                for (size_t l = 0; l < nlabels; ++l)
                    rt_[l] = tally_[l] - lt_[l];
                double child =
                    (static_cast<double>(lw) * gini(lt_, lw) +
                     static_cast<double>(rw) * gini(rt_, rw)) /
                    static_cast<double>(total_w);
                double gain = parent_gini - child;
                if (gain > best_gain) {
                    best_gain = gain;
                    best_col = col;
                    best_thr = vals_[i];
                }
            }
        } else {
            // Oversized matrix (row-unique blob columns): the
            // legacy per-threshold rescan, identical tallies.
            for (size_t i = 0; i + 1 < nvals; i += step) {
                uint64_t thr = vals_[i];
                std::fill(lt_.begin(), lt_.end(), 0);
                std::fill(rt_.begin(), rt_.end(), 0);
                uint64_t lw = 0, rw = 0;
                for (size_t j = lo; j < hi; ++j) {
                    size_t r = frontier_[j];
                    uint64_t w = ds.weight(r);
                    if (colv[r] <= thr) {
                        lt_[row_label_idx_[r]] += w;
                        lw += w;
                    } else {
                        rt_[row_label_idx_[r]] += w;
                        rw += w;
                    }
                }
                if (lw == 0 || rw == 0)
                    continue;
                double child =
                    (static_cast<double>(lw) * gini(lt_, lw) +
                     static_cast<double>(rw) * gini(rt_, rw)) /
                    static_cast<double>(total_w);
                double gain = parent_gini - child;
                if (gain > best_gain) {
                    best_gain = gain;
                    best_col = col;
                    best_thr = thr;
                }
            }
        }
    }

    if (best_col == SIZE_MAX)
        return makeLeaf(ds, lo, hi);

    // Stable in-place partition of the frontier range: left rows
    // compact forward in original order, right rows return from the
    // scratch in original order — the same sequences the legacy
    // left/right vectors held, without O(rows) memory per node.
    const uint64_t *bestv = ds.columnData(best_col);
    partScratch_.clear();
    size_t w = lo;
    for (size_t i = lo; i < hi; ++i) {
        size_t r = frontier_[i];
        if (bestv[r] <= best_thr)
            frontier_[w++] = r;
        else
            partScratch_.push_back(r);
    }
    std::copy(partScratch_.begin(), partScratch_.end(),
              frontier_.begin() + static_cast<long>(w));
    size_t mid = w;

    // Reserve this node's slot before recursing.
    nodes_.emplace_back();
    int self = static_cast<int>(nodes_.size() - 1);
    int li = build(ds, cols, lo, mid, depth + 1, rng);
    int ri = build(ds, cols, mid, hi, depth + 1, rng);
    Node &n = nodes_[static_cast<size_t>(self)];
    n.leaf = false;
    n.col = best_col;
    n.threshold = best_thr;
    n.left = li;
    n.right = ri;
    return self;
}

int
DecisionTree::walk(const DatasetView &ds, size_t row) const
{
    if (nodes_.empty())
        util::panic("DecisionTree::walk before train()");
    int idx = 0;
    for (;;) {
        const Node &n = nodes_[static_cast<size_t>(idx)];
        if (n.leaf)
            return idx;
        idx = ds.value(row, n.col) <= n.threshold ? n.left : n.right;
    }
}

uint64_t
DecisionTree::predict(const DatasetView &ds, size_t row) const
{
    return nodes_[static_cast<size_t>(walk(ds, row))].label;
}

}  // namespace ml
}  // namespace snip
