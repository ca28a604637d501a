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

    // Field-id union from a presence array indexed by id: one pass
    // over every input, then the ids in ascending order, a fixed
    // number of allocations however many rows/fields there are.
    std::vector<char> present(schema.size(), 0);
    for (const auto *r : records) {
        if (r->type != records[0]->type)
            util::fatal("Dataset: mixed event types");
        for (const auto &fv : r->inputs) {
            if (fv.id >= present.size())
                util::panic("Dataset: input field %u outside the "
                            "%zu-field schema",
                            fv.id, present.size());
            present[fv.id] = 1;
        }
    }
    featureFields_.reserve(static_cast<size_t>(
        std::count(present.begin(), present.end(), 1)));
    for (size_t id = 0; id < present.size(); ++id)
        if (present[id])
            featureFields_.push_back(static_cast<events::FieldId>(id));

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
