#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/parallel.h"

namespace snip {
namespace ml {

namespace {

/** Stream tags decorrelating the per-tree seed derivations. */
constexpr uint64_t kTreeStream = 0x7ee5eedULL;
constexpr uint64_t kBootStream = 0xb0075eedULL;

}  // namespace

RandomForest::RandomForest(ForestConfig cfg) : cfg_(cfg) {}

void
RandomForest::train(const DatasetView &ds,
                    const std::vector<size_t> &feature_cols)
{
    size_t num_trees = static_cast<size_t>(cfg_.num_trees);
    trees_.clear();
    trees_.resize(num_trees);

    // Draw every tree's seed serially up-front; each tree task then
    // forks its own config and bootstrap streams from that one seed,
    // so tree t's content is a pure function of (forest seed, t) and
    // the worker count cannot leak into the result.
    util::Rng rng(cfg_.seed);
    std::vector<uint64_t> seeds(num_trees);
    for (size_t t = 0; t < num_trees; ++t)
        seeds[t] = rng.next();

    size_t n = ds.numRows();
    util::parallelFor(num_trees, [&](size_t t) {
        TreeConfig tc = cfg_.tree;
        tc.seed = util::mixCombine(seeds[t], kTreeStream);
        if (tc.feature_subsample == 0) {
            tc.feature_subsample = static_cast<size_t>(std::ceil(
                std::sqrt(static_cast<double>(feature_cols.size()))));
        }
        auto tree = std::make_unique<DecisionTree>(tc);
        util::Rng boot_rng(util::mixCombine(seeds[t], kBootStream));
        std::vector<size_t> boot(n);
        for (size_t i = 0; i < n; ++i)
            boot[i] = static_cast<size_t>(
                boot_rng.uniformInt(0, n - 1));
        tree->trainOnRows(ds, feature_cols, boot);
        trees_[t] = std::move(tree);
    });

    // Dense label dictionary: sorted distinct leaf labels across the
    // forest, plus a per-tree node -> label-index table, so voting
    // is flat array increments instead of map inserts.
    labels_.clear();
    for (const auto &t : trees_) {
        for (size_t node = 0; node < t->nodeCount(); ++node) {
            uint64_t lbl = t->nodeLabel(node);
            if (lbl != kNoLabel)
                labels_.push_back(lbl);
        }
    }
    std::sort(labels_.begin(), labels_.end());
    labels_.erase(std::unique(labels_.begin(), labels_.end()),
                  labels_.end());

    leaf_label_idx_.assign(num_trees, {});
    for (size_t t = 0; t < num_trees; ++t) {
        const DecisionTree &tree = *trees_[t];
        leaf_label_idx_[t].assign(tree.nodeCount(), 0);
        for (size_t node = 0; node < tree.nodeCount(); ++node) {
            uint64_t lbl = tree.nodeLabel(node);
            if (lbl == kNoLabel)
                continue;
            auto it = std::lower_bound(labels_.begin(),
                                       labels_.end(), lbl);
            leaf_label_idx_[t][node] =
                static_cast<uint32_t>(it - labels_.begin());
        }
    }
}

uint64_t
RandomForest::predict(const DatasetView &ds, size_t row) const
{
    if (trees_.empty())
        util::panic("RandomForest: predict before train()");
    std::vector<uint32_t> votes(labels_.size(), 0);
    for (size_t t = 0; t < trees_.size(); ++t)
        ++votes[leaf_label_idx_[t][trees_[t]->leafIndex(ds, row)]];
    // labels_ is sorted ascending and the scan takes the first
    // strict maximum, so ties break toward the smallest label.
    size_t best = 0;
    for (size_t i = 1; i < votes.size(); ++i) {
        if (votes[i] > votes[best])
            best = i;
    }
    return labels_[best];
}

}  // namespace ml
}  // namespace snip
