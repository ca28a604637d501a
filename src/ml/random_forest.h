/**
 * @file
 * Bagged random forest (Breiman 2001, the paper's citation [6] for
 * PFI) over decision trees: bootstrap row sampling plus per-split
 * feature subsampling, majority vote.
 *
 * A reference learner for the predictor ablation (bench/ablation_pfi);
 * Shrink itself runs PFI over the exact-match TablePredictor. Trees
 * train in parallel (util::parallelFor at the default width); every
 * tree's seed and bootstrap stream are derived up-front from the
 * forest seed, so the forest is the same at any worker count.
 */

#ifndef SNIP_ML_RANDOM_FOREST_H
#define SNIP_ML_RANDOM_FOREST_H

#include <memory>

#include "ml/decision_tree.h"

namespace snip {
namespace ml {

/** Forest hyperparameters. */
struct ForestConfig {
    int num_trees = 16;
    TreeConfig tree;
    uint64_t seed = 0xf02e57ULL;
};

/** Majority-vote forest. */
class RandomForest : public Predictor
{
  public:
    explicit RandomForest(ForestConfig cfg = {});

    void train(const DatasetView &ds,
               const std::vector<size_t> &feature_cols) override;

    /** The majority vote of the trees, ties to the smallest label. */
    uint64_t predict(const DatasetView &ds, size_t row) const override;

    /** Number of trained trees. */
    size_t treeCount() const { return trees_.size(); }

  private:
    ForestConfig cfg_;
    std::vector<std::unique_ptr<DecisionTree>> trees_;
    /** Sorted distinct leaf labels; votes are tallied by index. */
    std::vector<uint64_t> labels_;
    /** Per tree: node index -> dense label index (leaves only). */
    std::vector<std::vector<uint32_t>> leaf_label_idx_;
};

}  // namespace ml
}  // namespace snip

#endif  // SNIP_ML_RANDOM_FOREST_H
