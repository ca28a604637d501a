/**
 * @file
 * The SNIP pipeline facade (paper Fig. 10): from a recorded profile
 * to a deployable model — per-event-type PFI feature selection plus
 * the initial memoization table, frozen into the one form a model
 * holds — with optional developer overrides (Option 1 of §V-B).
 */

#ifndef SNIP_CORE_SNIP_H
#define SNIP_CORE_SNIP_H

#include <memory>
#include <string>
#include <vector>

#include "core/frozen_table.h"
#include "core/memo_table.h"
#include "ml/chunked_dataset.h"
#include "ml/feature_selection.h"
#include "trace/profile.h"

namespace snip {
namespace core {

/** Developer overrides fed into selection (§V-B Option 1). */
struct DeveloperOverrides {
    /** Field names that must stay in the necessary set. */
    std::vector<std::string> force_keep;
};

/** Per-type wrong-hit error budget of Shrink's selection. */
constexpr double kShrinkMaxError = 0.002;
/** Conditional (wrong hits / hits) budget of Shrink's selection. */
constexpr double kShrinkMaxConditionalError = 0.012;

/** Pipeline knobs. */
struct SnipConfig {
    uint64_t seed = 0x51139ULL;
    /**
     * Worker threads for the Shrink phase (PFI task fan-out inside
     * selection); 0 = SNIP_THREADS / all cores. Selection output is
     * bitwise identical for any value.
     */
    unsigned threads = 0;
    DeveloperOverrides overrides;
    /**
     * Minimum records of a type required to attempt selection;
     * sparser types are left undeployed (processed as baseline).
     */
    size_t min_records_per_type = 32;
    /**
     * Optional metrics sink (nullptr = observability off): the
     * Shrink-phase spans (`span.shrink` and nested select / train /
     * holdout / pfi), per-type counters, and final table gauges.
     * Never alters the built model.
     */
    obs::Registry *obs = nullptr;
};

/** Per-event-type selection outcome. */
struct TypeModel {
    events::EventType type = events::EventType::Touch;
    ml::SelectionResult selection;
    /** Profiled records of this type behind the selection — the
     *  evidence weight of selection.selected_error. */
    uint64_t records = 0;
};

/** The deployable artifact: selections + initial table. */
struct SnipModel {
    std::string game;
    std::vector<TypeModel> types;
    /**
     * The deployed table (frozen_table.h): frozen by buildSnipModel,
     * or decoded from a package by deployModel()/unpackModel(). The
     * runtime (SnipScheme) looks up against it. Null when the model
     * carries no table.
     */
    std::shared_ptr<const FrozenTable> table;

    /** Sum of selected necessary-input bytes across the table's
     *  deployed types (0 without a table). */
    uint64_t selectedBytes() const;

    /** A no-op: every model's table is already frozen. */
    void freeze() {}

    /** Whether a lookup table is deployed. */
    bool deployed() const { return table != nullptr; }

    /** Deployed-table payload bytes (0 without a table). */
    uint64_t tableBytes() const { return table ? table->totalBytes() : 0; }
};

/**
 * Run PFI selection per event type on @p profile, pre-fill a
 * MemoTable from it and freeze that into the deployable table.
 * @p game supplies the schema and (for override name resolution)
 * the field registry.
 */
SnipModel buildSnipModel(const trace::Profile &profile,
                         const games::Game &game,
                         const SnipConfig &cfg = {});

/**
 * Out-of-core variant: run the same pipeline over the training
 * sections of a (typically mmap-backed) SNCT file, training
 * through bounded-RSS ml::ChunkedDataset views instead of an
 * in-memory Dataset. Selections and the pre-filled table are
 * bitwise identical to the in-memory path over the same records
 * (the table prefill walks types in enum order; MemoTable buckets
 * are per-type with insertion order preserved within a type, so
 * grouped insertion builds the same table as profile order).
 * Errors (rather than panicking) on a trace without training
 * sections or one recorded against a different game.
 */
util::Result<SnipModel>
buildSnipModel(std::shared_ptr<const trace::ColumnarLog> tlog,
               const games::Game &game, const SnipConfig &cfg = {},
               const ml::ChunkedConfig &chunked = {});

}  // namespace core
}  // namespace snip

#endif  // SNIP_CORE_SNIP_H
