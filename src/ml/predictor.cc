#include "ml/predictor.h"

#include <algorithm>

namespace snip {
namespace ml {

void
Predictor::predictRows(const DatasetView &ds, size_t row_begin,
                       size_t row_end, uint64_t *out_labels) const
{
    for (size_t r = row_begin; r < row_end; ++r)
        out_labels[r - row_begin] = predict(ds, r);
}

double
weightedErrorRate(const Predictor &p, const DatasetView &ds)
{
    // Batched so TablePredictor reads its stored row keys in one
    // pass per block, in blocks small enough to stay cache-resident.
    constexpr size_t kBlock = 512;
    uint64_t labels[kBlock];
    uint64_t wrong = 0;
    size_t n = ds.numRows();
    for (size_t begin = 0; begin < n; begin += kBlock) {
        size_t end = std::min(n, begin + kBlock);
        p.predictRows(ds, begin, end, labels);
        for (size_t r = begin; r < end; ++r) {
            if (labels[r - begin] != ds.label(r))
                wrong += ds.weight(r);
        }
    }
    return static_cast<double>(wrong) /
           static_cast<double>(ds.totalWeight());
}

}  // namespace ml
}  // namespace snip
