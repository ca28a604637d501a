/**
 * @file
 * Out-of-core DatasetView over a memory-mapped SNCT training
 * section (trace::ColumnarLog): the column-major feature / label /
 * weight arrays of one event type are used *in place* — attach()
 * copies nothing but the feature-id list — so training over a
 * multi-GB trace touches pages on demand and the view can keep peak
 * RSS near a configured budget.
 *
 * Residency control is advisory and value-invariant: consumers
 * (TablePredictor's row-key sweeps, the table prefill in
 * core::buildSnipModel and attach()'s weight pass)
 * call noteStreamed(bytes) every streamBlockRows() rows; once the
 * accumulated volume crosses half the budget, the whole mapping is
 * MADV_DONTNEED'd and clean pages refault from the page cache on the
 * next touch. Dropping pages
 * never changes bytes, so chunked and in-memory training produce
 * bitwise-identical models at any block size or thread count (the
 * digest-equality contract; see DESIGN.md).
 */

#ifndef SNIP_ML_CHUNKED_DATASET_H
#define SNIP_ML_CHUNKED_DATASET_H

#include <atomic>
#include <memory>

#include "ml/dataset.h"
#include "trace/columnar_log.h"
#include "util/status.h"

namespace snip {
namespace ml {

/** Out-of-core geometry knobs. */
struct ChunkedConfig {
    /**
     * Soft peak-RSS target for trace pages (bytes). Streamed-volume
     * accounting releases residency at half this value, keeping the
     * page footprint oscillating below it. 0 = never release.
     */
    size_t residency_budget_bytes = size_t{512} << 20;
    /**
     * Rows a consumer processes between noteStreamed() calls. Any
     * value >= 1 yields identical results; smaller blocks bound RSS
     * tighter at slightly more accounting overhead.
     */
    size_t block_rows = 4096;
};

/** Bounded-RSS feature matrix mapped from a training trace. */
class ChunkedDataset : public DatasetView
{
  public:
    /**
     * View the training section for @p type of @p log. Validates
     * every field id against @p schema (input fields for features,
     * output fields for outputs) and streams one pass over the
     * weights to fix the total; errors instead of panicking on a
     * foreign or mismatched trace. @p log is retained (shared
     * ownership keeps the mapping alive).
     */
    static util::Result<std::shared_ptr<const ChunkedDataset>>
    attach(std::shared_ptr<const trace::ColumnarLog> log,
           events::EventType type, const events::FieldSchema &schema,
           const ChunkedConfig &cfg = {});

    /**
     * Reconstruct row @p row as a handler-execution record (type,
     * inputs, outputs, weight as instructions) — exactly the fields
     * table prefill consumes. Inputs/outputs come out in canonical
     * (ascending-id) order with absent locations skipped.
     */
    void materializeRecord(size_t row,
                           games::HandlerExecution *out) const;

    /** Streamed-volume accounting (see file header). */
    void noteStreamed(size_t bytes) const override;

  private:
    ChunkedDataset() = default;

    std::shared_ptr<const trace::ColumnarLog> log_;
    const trace::ColumnarLog::TrainingCols *tc_ = nullptr;
    events::EventType type_ = events::EventType::Touch;
    size_t budget_ = 0;
    mutable std::atomic<uint64_t> streamed_{0};
};

}  // namespace ml
}  // namespace snip

#endif  // SNIP_ML_CHUNKED_DATASET_H
