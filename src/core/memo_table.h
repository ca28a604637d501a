/**
 * @file
 * The build side of the SNIP lookup table (paper §V-B): per event
 * type it keeps the PFI-selected necessary input fields and a set of
 * entries mapping observed necessary-input values to memoized
 * outputs, bucketed by a hash of the *event-object* portion of the
 * necessary inputs (the event subkey). Runtime lookups go through the
 * frozen form (frozen_table.h), which charges the paper's scan of a
 * bucket's candidates — the Fig. 11c overhead term.
 */

#ifndef SNIP_CORE_MEMO_TABLE_H
#define SNIP_CORE_MEMO_TABLE_H

#include <array>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "events/event.h"
#include "events/field.h"
#include "games/handler.h"

namespace snip {

namespace obs {
class Registry;
}  // namespace obs

namespace core {

class FrozenTable;

/** One memoized entry: necessary-input values -> outputs. */
struct MemoEntry {
    /** Stored necessary-field values (canonical id order). Fields
     *  the profiled execution did not read are simply not stored;
     *  comparison only checks stored fields. */
    std::vector<events::FieldValue> key_fields;
    /** Slot of each key field within the type's sorted selected set
     *  (parallel to key_fields): the frozen arena's key slots. */
    std::vector<uint32_t> key_slots;
    /** Memoized output writes. */
    std::vector<events::FieldValue> outputs;
    /** Entry payload size in bytes (keys + outputs). */
    uint32_t entry_bytes = 0;
};

/**
 * Per-game build-side lookup table: Shrink fills it, the federated
 * merge unions it, and freeze() turns it into the FrozenTable every
 * device lookup probes. It has no lookup of its own.
 */
class MemoTable
{
  public:
    /**
     * Bind to a game's schema. The table keeps its own copy: models
     * built from a short-lived game (e.g. the federated builders)
     * must stay valid after that game is destroyed.
     */
    explicit MemoTable(const events::FieldSchema &schema);

    /**
     * Configure the necessary (selected) fields of one event type.
     * Must be called before inserting records of that type.
     */
    void setSelected(events::EventType type,
                     std::vector<events::FieldId> selected);

    /** Selected fields of a type (empty when unconfigured). */
    const std::vector<events::FieldId> &
    selected(events::EventType type) const;

    /** Sum of selected-field sizes for a type (bytes). */
    uint64_t selectedBytes(events::EventType type) const;

    /**
     * Insert (or refresh) an entry from a profiled/observed
     * execution: its inputs are projected onto the selected fields.
     * Duplicate keys keep the first-inserted outputs (the paper's
     * table is append-only between re-learns).
     */
    void insert(const games::HandlerExecution &rec);

    /**
     * Freeze this table into its immutable deploy-side form (a
     * self-owning contiguous arena; see frozen_table.h). Pure and
     * deterministic over the canonical entry order; the build-side
     * table is unchanged.
     */
    std::shared_ptr<const FrozenTable> freeze() const;

    /** The schema copy this table is bound to. */
    const events::FieldSchema &schema() const { return schema_; }

    /**
     * Visit every entry of @p type in canonical order: buckets by
     * ascending event-subkey, entries in insertion order within a
     * bucket. The order is stable across serialize/deserialize
     * round-trips, which is what makes re-serialization
     * byte-identical (model_codec.h).
     */
    void visitEntries(
        events::EventType type,
        const std::function<void(uint64_t subkey,
                                 const MemoEntry &entry)> &fn) const;

    /**
     * Union another table's entries into this one (the server-side
     * federated merge). Entries are re-projected onto *this* table's
     * selected sets; duplicate keys keep the first-seen outputs,
     * matching insert()'s append-only semantics.
     */
    void mergeFrom(const MemoTable &other);

    /**
     * Export table shape as `table.*` gauges (entries, payload
     * bytes, selected bytes, configured types). Read-only; see
     * DESIGN.md for the metric namespace.
     */
    void recordStats(obs::Registry &reg) const;

    /** Number of entries across all types. */
    size_t entryCount() const;
    /** Entries of one type. */
    size_t entryCount(events::EventType type) const;
    /** Total table payload bytes (entries + per-entry header). */
    uint64_t totalBytes() const;

    /** Per-entry header/index overhead modeled (bytes). */
    static constexpr uint32_t kEntryHeaderBytes = 256;

    /** Drop all entries (the profiler's "clear the table" action). */
    void clear();

  private:
    struct TypeTable {
        std::vector<events::FieldId> selected;   // sorted
        std::vector<events::FieldId> selected_event;    // In.Event subset
        uint64_t selected_bytes = 0;
        /** Event-subkey hash -> candidate entries. */
        std::unordered_map<uint64_t, std::vector<MemoEntry>> buckets;
        size_t entries = 0;
        uint64_t bytes = 0;
    };

    uint64_t eventSubkey(const TypeTable &tt,
                         const std::vector<events::FieldValue> &fields)
        const;

    events::FieldSchema schema_;
    std::array<TypeTable, events::kNumEventTypes> types_;
};

}  // namespace core
}  // namespace snip

#endif  // SNIP_CORE_MEMO_TABLE_H
