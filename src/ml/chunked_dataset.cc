#include "ml/chunked_dataset.h"

#include <algorithm>

namespace snip {
namespace ml {

// Mapped feature columns feed the ML layer verbatim, so the two
// absent markers must be the same bit pattern.
static_assert(kAbsent == trace::kTrainingAbsent,
              "ml::kAbsent must match trace::kTrainingAbsent");

util::Result<std::shared_ptr<const ChunkedDataset>>
ChunkedDataset::attach(std::shared_ptr<const trace::ColumnarLog> log,
                       events::EventType type,
                       const events::FieldSchema &schema,
                       const ChunkedConfig &cfg)
{
    if (!log)
        return util::Status::Error("chunked: null trace");
    const trace::ColumnarLog::TrainingCols *tc = log->training(type);
    if (!tc)
        return util::Status::Errorf(
            "chunked: no training section for type %d",
            static_cast<int>(type));
    if (tc->nrows == 0)
        return util::Status::Errorf(
            "chunked: training section for type %d is empty",
            static_cast<int>(type));

    // The trace was validated structurally at attach(); here we
    // validate it *against this game's schema* — a section recorded
    // for a different game must fail with a Status, not a panic in
    // FieldSchema::def() later.
    auto check_ids = [&](const uint32_t *ids, uint32_t n,
                         events::FieldSide side) {
        for (uint32_t i = 0; i < n; ++i) {
            if (ids[i] >= schema.size() ||
                schema.defs()[ids[i]].side != side)
                return false;
        }
        return true;
    };
    if (!check_ids(tc->feat_ids, tc->nfeat,
                   events::FieldSide::Input) ||
        !check_ids(tc->out_ids, tc->nout, events::FieldSide::Output))
        return util::Status::Errorf(
            "chunked: training section for type %d does not match "
            "the game schema", static_cast<int>(type));

    auto ds = std::shared_ptr<ChunkedDataset>(new ChunkedDataset());
    ds->log_ = std::move(log);
    ds->tc_ = tc;
    ds->type_ = type;
    ds->budget_ = cfg.residency_budget_bytes;
    ds->schema_ = &schema;
    ds->rows_ = tc->nrows;
    ds->values_ = tc->feat_cols;
    ds->labels_ = tc->labels;
    ds->weights_ = tc->weights;
    ds->streamBlockRows_ = std::max<size_t>(1, cfg.block_rows);
    ds->featureFields_.assign(tc->feat_ids,
                              tc->feat_ids + tc->nfeat);

    // One streaming pass fixes the weight total (and rejects zero
    // weights, which would poison the error-rate denominators).
    uint64_t total = 0;
    size_t blk = ds->streamBlockRows_;
    for (uint64_t base = 0; base < tc->nrows; base += blk) {
        uint64_t n = std::min<uint64_t>(blk, tc->nrows - base);
        for (uint64_t i = 0; i < n; ++i) {
            uint64_t w = tc->weights[base + i];
            if (w == 0)
                return util::Status::Errorf(
                    "chunked: zero weight at row %llu",
                    static_cast<unsigned long long>(base + i));
            total += w;
        }
        ds->noteStreamed(static_cast<size_t>(n) * 8);
    }
    ds->totalWeight_ = total;
    return util::Result<std::shared_ptr<const ChunkedDataset>>(
        std::shared_ptr<const ChunkedDataset>(std::move(ds)));
}

void
ChunkedDataset::materializeRecord(size_t row,
                                  games::HandlerExecution *out) const
{
    out->type = type_;
    out->seq = row;
    out->inputs.clear();
    out->outputs.clear();
    // Columns are keyed by ascending field id, so pushing in column
    // order reproduces the canonical record order directly.
    for (uint32_t f = 0; f < tc_->nfeat; ++f) {
        uint64_t v = tc_->feat_cols[f * rows_ + row];
        if (v != kAbsent)
            out->inputs.push_back({tc_->feat_ids[f], v});
    }
    for (uint32_t o = 0; o < tc_->nout; ++o) {
        uint64_t v = tc_->out_cols[o * rows_ + row];
        if (v != kAbsent)
            out->outputs.push_back({tc_->out_ids[o], v});
    }
    out->cpu_instructions = tc_->weights[row];
}

void
ChunkedDataset::noteStreamed(size_t bytes) const
{
    if (budget_ == 0 || !log_->mmapBacked())
        return;
    uint64_t seen =
        streamed_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (seen >= budget_ / 2) {
        streamed_.store(0, std::memory_order_relaxed);
        log_->releaseResidency();
    }
}

}  // namespace ml
}  // namespace snip
