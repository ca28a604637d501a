/**
 * @file
 * CART-style decision tree over the dataset's (numeric-encoded)
 * features, used as a reference learner in the predictor ablation
 * (and as the building block of RandomForest, the model family the
 * PFI literature [6] is defined on).
 *
 * Nodes reference [begin, end) ranges of ONE row-index frontier that
 * is partitioned in place (stable, left rows first), instead of
 * materializing per-node row vectors, so index memory is O(rows) for
 * the whole build. Split evaluation tallies a per-distinct-value
 * weight histogram in one pass and prefix-sums it across thresholds;
 * all tallies are uint64, so the result is bitwise identical to a
 * per-threshold rescan — the Gini doubles are computed from the
 * exact same integers in the same order.
 */

#ifndef SNIP_ML_DECISION_TREE_H
#define SNIP_ML_DECISION_TREE_H

#include "ml/predictor.h"
#include "util/rng.h"

namespace snip {
namespace ml {

/** Tree hyperparameters. */
struct TreeConfig {
    int max_depth = 12;
    size_t min_samples_split = 4;
    /** Candidate thresholds tried per feature at a split. */
    int threshold_candidates = 12;
    /**
     * Features considered per split: 0 = all, else a random subset
     * of this size (for forests).
     */
    size_t feature_subsample = 0;
    uint64_t seed = 0x7ee5eedULL;
};

/** Single classification tree with weighted Gini splits. */
class DecisionTree : public Predictor
{
  public:
    explicit DecisionTree(TreeConfig cfg = {});

    void train(const DatasetView &ds,
               const std::vector<size_t> &feature_cols) override;

    /** Train on a row subset (bootstrap sample) — forest use. */
    void trainOnRows(const DatasetView &ds,
                     const std::vector<size_t> &feature_cols,
                     const std::vector<size_t> &rows);

    uint64_t predict(const DatasetView &ds, size_t row) const override;

    /** Node count (tests / complexity reporting). */
    size_t nodeCount() const { return nodes_.size(); }

    /**
     * Leaf node index reached by @p row — the forest descends once
     * and reads the label by node id.
     */
    size_t leafIndex(const DatasetView &ds, size_t row) const
    {
        return static_cast<size_t>(walk(ds, row));
    }

    /** Majority label stored at node @p node (leaves only). */
    uint64_t nodeLabel(size_t node) const
    {
        return nodes_[node].label;
    }

  private:
    struct Node {
        bool leaf = true;
        size_t col = SIZE_MAX;        // split column (dataset index)
        uint64_t threshold = 0;       // go left when value <= threshold
        int left = -1;
        int right = -1;
        uint64_t label = kNoLabel;    // leaf majority label
    };

    int build(const DatasetView &ds, const std::vector<size_t> &cols,
              size_t lo, size_t hi, int depth, util::Rng &rng);
    int makeLeaf(const DatasetView &ds, size_t lo, size_t hi);
    int walk(const DatasetView &ds, size_t row) const;

    TreeConfig cfg_;
    std::vector<Node> nodes_;

    /**
     * Training-time dense label dictionary (the forest-voting
     * pattern): labels_ lists the distinct training labels
     * ascending, row_label_idx_ maps a dataset row to its dense
     * index, and the flat tally vectors below replace
     * per-split std::map tallies — same ascending-label iteration
     * order, so impurities and tie-breaks are bitwise identical.
     */
    std::vector<uint64_t> labels_;
    std::vector<uint32_t> row_label_idx_;
    /** Reusable split scratch (total / left / right tallies). */
    std::vector<uint64_t> tally_, lt_, rt_;

    /**
     * The row-index frontier: one array holding every training row,
     * partitioned in place as the tree grows. Nodes under
     * construction reference [lo, hi) ranges of it.
     */
    std::vector<size_t> frontier_;
    /** Right-side rows during the stable in-place partition. */
    std::vector<size_t> partScratch_;
    /** Gathered column values of the current node (sorted/uniqued). */
    std::vector<uint64_t> vals_;
    /** distinct-value x label weight histogram (one split pass). */
    std::vector<uint64_t> hist_;
    /** Per-distinct-value total weight (parallel to vals_). */
    std::vector<uint64_t> histW_;
};

}  // namespace ml
}  // namespace snip

#endif  // SNIP_ML_DECISION_TREE_H
