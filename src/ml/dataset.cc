#include "ml/dataset.h"

#include <algorithm>
#include <atomic>

#include "util/logging.h"

namespace snip {
namespace ml {

DatasetView::DatasetView()
{
    static std::atomic<uint64_t> next_id{1};
    id_ = next_id.fetch_add(1, std::memory_order_relaxed);
}

events::FieldId
DatasetView::featureField(size_t col) const
{
    if (col >= featureFields_.size())
        util::panic("DatasetView::featureField: bad column %zu", col);
    return featureFields_[col];
}

size_t
DatasetView::columnOf(events::FieldId fid) const
{
    auto it = std::lower_bound(featureFields_.begin(),
                               featureFields_.end(), fid);
    if (it == featureFields_.end() || *it != fid)
        return SIZE_MAX;
    return static_cast<size_t>(it - featureFields_.begin());
}

uint32_t
DatasetView::featureBytes(size_t col) const
{
    return schema_->def(featureField(col)).size_bytes;
}

uint64_t
DatasetView::bytesOfColumns(const std::vector<size_t> &cols) const
{
    uint64_t total = 0;
    for (size_t c : cols)
        total += featureBytes(c);
    return total;
}

Dataset::Dataset(
    std::span<const games::HandlerExecution *const> records,
    const events::FieldSchema &schema)
{
    schema_ = &schema;
    rows_ = records.size();
    if (rows_ == 0)
        util::fatal("Dataset: no records");

    // Field-id union without a node-based set: one counting pass to
    // reserve, one gather pass, then sort + unique — a fixed number
    // of allocations however many rows/fields there are.
    size_t total_inputs = 0;
    for (const auto *r : records) {
        if (r->type != records[0]->type)
            util::fatal("Dataset: mixed event types");
        total_inputs += r->inputs.size();
    }
    featureFields_.reserve(total_inputs);
    for (const auto *r : records)
        for (const auto &fv : r->inputs)
            featureFields_.push_back(fv.id);
    std::sort(featureFields_.begin(), featureFields_.end());
    featureFields_.erase(
        std::unique(featureFields_.begin(), featureFields_.end()),
        featureFields_.end());
    featureFields_.shrink_to_fit();

    ownedValues_.assign(featureFields_.size() * rows_, kAbsent);
    ownedLabels_.resize(rows_);
    ownedWeights_.resize(rows_);
    for (size_t row = 0; row < rows_; ++row) {
        const auto *r = records[row];
        // Inputs are canonicalized (sorted by id); walk both sorted
        // sequences in lockstep. Everything below writes into the
        // pre-sized arrays — no allocation per row.
        size_t col = 0;
        for (const auto &fv : r->inputs) {
            while (col < featureFields_.size() &&
                   featureFields_[col] < fv.id)
                ++col;
            if (col < featureFields_.size() &&
                featureFields_[col] == fv.id)
                ownedValues_[col * rows_ + row] = fv.value;
        }
        ownedLabels_[row] = events::hashFields(r->outputs);
        ownedWeights_[row] =
            std::max<uint64_t>(1, r->cpu_instructions);
        totalWeight_ += ownedWeights_[row];
    }
    values_ = ownedValues_.data();
    labels_ = ownedLabels_.data();
    weights_ = ownedWeights_.data();
}

}  // namespace ml
}  // namespace snip
