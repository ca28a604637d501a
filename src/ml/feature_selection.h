/**
 * @file
 * Iterative PFI-driven input trimming (the heart of SNIP, §V-A and
 * Fig. 9): starting from the complete union-of-locations feature
 * set, repeatedly retrain the table predictor, compute PFI, and
 * try to drop the least-important feature (largest location first
 * among near-zero importances, which is what sweeps out the
 * megabytes of context payloads early), restoring and locking any
 * feature whose drop breaks the error budget. Each committed drop
 * logs the remaining input bytes and the resulting error, and the
 * selector returns the last feature set within the budget (the
 * "necessary inputs", the knee set Shrink deploys).
 *
 * The Fig. 9 ramp past the knee is for the figure, not the phone:
 * chartTail() appends it to a selection's curve on request.
 */

#ifndef SNIP_ML_FEATURE_SELECTION_H
#define SNIP_ML_FEATURE_SELECTION_H

#include "events/field.h"
#include "ml/pfi.h"
#include "ml/table_predictor.h"

namespace snip {
namespace ml {

/** One trimming step of the Fig. 9 curve. */
struct TrimStep {
    /** Field dropped at this step. */
    events::FieldId dropped = events::kInvalidField;
    events::InputCategory dropped_cat = events::InputCategory::Event;
    uint32_t dropped_bytes = 0;
    /** Bytes of input fields still kept after the drop. */
    uint64_t remaining_bytes = 0;
    /**
     * Held-out *wrong-hit* rate with the remaining set: weight of
     * records whose key matches a trained entry but with different
     * outputs. Misses are neutral — they fall back to full
     * processing.
     */
    double error = 0.0;
    /** Held-out hit rate (short-circuit coverage proxy). */
    double hit_rate = 0.0;
};

/** Selector output. */
struct SelectionResult {
    /** Error of the full feature set (leftmost Fig. 9 bar). */
    double full_error = 0.0;
    /** Total bytes of the full feature set. */
    uint64_t full_bytes = 0;
    /**
     * The trimming trajectory, in drop order: the committed drops up
     * to the knee, then the steps chartTail() appends past it.
     */
    std::vector<TrimStep> curve;
    /** Necessary input fields (the knee set), sorted by id. */
    std::vector<events::FieldId> selected;
    /** Bytes of the selected set. */
    uint64_t selected_bytes = 0;
    /** Held-out wrong-hit rate of the selected set. */
    double selected_error = 0.0;
    /** Held-out hit rate of the selected set. */
    double selected_hit_rate = 0.0;
};

/** Selector knobs. */
struct SelectionConfig {
    /** Absolute wrong-hit budget the selected set must respect. */
    double max_error = 0.01;
    /**
     * Conditional budget: wrong hits as a fraction of hits. Catches
     * degenerate keys that rarely hit on the holdout but hit (and
     * mispredict) at runtime.
     */
    double max_conditional_error = 0.04;
    PfiConfig pfi;
    /**
     * Fields the developer marked as must-keep (Option 1 overrides,
     * §V-B); never dropped regardless of importance.
     */
    std::vector<events::FieldId> forced_keep;
    /**
     * Optional metrics sink (nullptr = observability off): per-phase
     * spans (`span.*.select`, or `span.*.tail` for chartTail(),
     * with nested `train` / `holdout` / `pfi`) and
     * drop/restore/refresh counters. Also handed to the
     * nested PFI runs unless cfg.pfi.obs is already set. Never
     * alters results.
     */
    obs::Registry *obs = nullptr;
};

/**
 * Run the iterative trimming on one event type's dataset. Its curve
 * ends at the knee: every step is within the budget, and the last
 * one leaves the selected set.
 */
SelectionResult selectNecessaryInputs(const DatasetView &ds,
                                      const SelectionConfig &cfg = {});

/**
 * Append the Fig. 9 tail to @p result, a selectNecessaryInputs()
 * result over @p ds with @p cfg: from the selected set, keep
 * dropping the remaining feature of least per-byte PFI importance,
 * regardless of the budget, until the held-out wrong-hit rate
 * passes 40% or one feature is left. Only appends to
 * `result.curve`; the selected and full-set fields are unchanged.
 * Bitwise the same for any thread count.
 */
void chartTail(const DatasetView &ds, SelectionResult &result,
               const SelectionConfig &cfg = {});

}  // namespace ml
}  // namespace snip

#endif  // SNIP_ML_FEATURE_SELECTION_H
